"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (add ``-s`` to see the measured values). The Monte-Carlo scenarios
are shared across criteria through module-scoped fixtures, so the whole
suite stays within a couple of minutes on a laptop.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from bidirmr.benchmarks import mr_egger, mr_median, overall_ivw
from bidirmr.cli import main
from bidirmr.focusing import (
    Direction,
    FocusConfig,
    Method,
    Panel,
    power_forecast,
)
from bidirmr.model import TruthConfig, diagnose_identification, reduced_form
from bidirmr.simulation import ScenarioConfig, run_scenario, synthetic_seed
from bidirmr.truncnorm import TruncSpec, std_cdf, std_pdf, std_quantile, truncnorm_var
from conftest import make_random_panel, make_random_truth

FIXTURES = Path(__file__).parent / "fixtures"

P_SNPS = 394
N_REPS = 3000
ALPHA = 0.05
SEPARATION_C1 = 2.0


@pytest.fixture(scope="module")
def seed394():
    return synthetic_seed(P_SNPS, np.random.default_rng(1))


def _timed_scenario(seed, **kwargs):
    start = time.perf_counter()
    report = run_scenario(seed, ScenarioConfig(**kwargs))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def null_runs(seed394):
    """Null scenario (kappa=1, beta=(0,0)) for both focusing thresholds."""
    runs = {}
    for tau_f in (1.2, 1.5):
        methods = (Method.FOCUSED_IVW, Method.OVERALL_IVW) if tau_f == 1.5 else (
            Method.FOCUSED_IVW,
        )
        runs[tau_f] = _timed_scenario(
            seed394,
            kappa=1.0,
            beta_dy=0.0,
            beta_yd=0.0,
            n_reps=N_REPS,
            focus=FocusConfig(tau_f=tau_f, alpha=ALPHA),
            methods=methods,
            rng_seed=42,
            enforce_separation_c1=SEPARATION_C1,
        )
    return runs


@pytest.fixture(scope="module")
def power_run(seed394):
    """Same scenario with a true forward effect of 0.3."""
    report, _ = _timed_scenario(
        seed394,
        kappa=1.0,
        beta_dy=0.3,
        beta_yd=0.0,
        n_reps=N_REPS,
        focus=FocusConfig(tau_f=1.5, alpha=ALPHA),
        methods=(Method.FOCUSED_IVW, Method.FOCUSED_MEDIAN),
        rng_seed=7,
        enforce_separation_c1=SEPARATION_C1,
    )
    return report


@pytest.fixture(scope="module")
def kappa07_run(seed394):
    """Denser-activation scenario where conventional MR-Median breaks."""
    report, _ = _timed_scenario(
        seed394,
        kappa=0.7,
        beta_dy=0.0,
        beta_yd=0.0,
        n_reps=2000,
        focus=FocusConfig(tau_f=1.5, alpha=ALPHA),
        methods=(Method.MR_MEDIAN, Method.FOCUSED_IVW),
        rng_seed=11,
        enforce_separation_c1=SEPARATION_C1,
    )
    return report


def test_criterion_01_truncated_variance_closed_form_and_quadrature():
    """Symmetric truncated variance: closed form == implementation == quadrature, 1e-8."""
    start = time.perf_counter()
    for tau in (0.5, 1.2, 1.5, 2.0, 3.0):
        got = truncnorm_var(TruncSpec(-tau, tau, 0.0))
        mass = std_cdf(tau) - std_cdf(-tau)
        closed = 1.0 - 2.0 * tau * std_pdf(tau) / mass

        def dens(x, t=tau):
            return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

        zmass, _ = integrate.quad(dens, -tau, tau, epsabs=1e-14, epsrel=1e-13)
        second, _ = integrate.quad(
            lambda x: x * x * dens(x), -tau, tau, epsabs=1e-14, epsrel=1e-13
        )
        quadrature = second / zmass  # symmetric window: mean is zero
        assert got == pytest.approx(closed, abs=1e-8)
        assert got == pytest.approx(quadrature, abs=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: truncated variance matches closed form+quadrature ({elapsed:.2f}s)")


def test_criterion_02_ratio_identity_exact():
    """Valid-instrument association ratios equal the causal effects to 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        truth = make_random_truth(rng, p=10)
        rf = reduced_form(truth)
        pi_d_zero = truth.pi_d == 0.0
        pi_y_zero = truth.pi_y == 0.0
        valid_dy = ~pi_d_zero & pi_y_zero & (rf.gamma_d != 0.0)
        valid_yd = pi_d_zero & ~pi_y_zero & (rf.gamma_y != 0.0)
        if valid_dy.any():
            worst = max(
                worst,
                float(np.max(np.abs(rf.gamma_y[valid_dy] / rf.gamma_d[valid_dy] - truth.beta_dy))),
            )
        if valid_yd.any():
            worst = max(
                worst,
                float(np.max(np.abs(rf.gamma_d[valid_yd] / rf.gamma_y[valid_yd] - truth.beta_yd))),
            )
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: ratio identities exact, worst dev {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_identification_rules_impossibility():
    """No counting rule holds in both directions; the InSIDE critical value
    annihilates the exposure/pleiotropy inner product to 1e-10."""
    rng = np.random.default_rng(31)
    checked_inside = 0
    for _ in range(1000):
        truth = make_random_truth(
            rng,
            p=10,
            beta_dy=float(rng.uniform(0.1, 0.8) * rng.choice([-1, 1])),
            beta_yd=float(rng.uniform(0.1, 0.8) * rng.choice([-1, 1])),
        )
        report = diagnose_identification(truth)
        assert not (report.d_to_y.valid_rule and report.y_to_d.valid_rule)
        assert not (report.d_to_y.majority_rule and report.y_to_d.majority_rule)
        assert not (report.d_to_y.plurality_rule and report.y_to_d.plurality_rule)

        critical = report.d_to_y.inside_critical_beta
        if critical is not None and abs(critical * truth.beta_dy - 1.0) > 1e-6:
            tuned = TruthConfig(
                truth.pi_d, truth.pi_y, truth.beta_dy, critical, truth.se_d, truth.se_y
            )
            rf = reduced_form(tuned)
            inner = float(
                (rf.gamma_d - rf.gamma_d.mean()) @ (tuned.pi_y - tuned.pi_y.mean())
            )
            assert abs(inner) <= 1e-10
            checked_inside += 1
    assert checked_inside > 500
    print(f"\nPASS criterion 3: 1000 configs, 0 rule violations, {checked_inside} critical values")


def test_criterion_04_type_i_error_within_band(null_runs):
    """Focused IVW size in [0.035, 0.065] for both thresholds, 3000 reps each."""
    total_elapsed = sum(elapsed for _, elapsed in null_runs.values())
    for tau_f, (report, _) in null_runs.items():
        for direction in ("dy", "yd"):
            rate = report.rejection_rates["focused_ivw"][direction]
            assert 0.035 <= rate <= 0.065, (tau_f, direction, rate)
    assert total_elapsed <= 300.0
    rates = {
        tau_f: report.rejection_rates["focused_ivw"] for tau_f, (report, _) in null_runs.items()
    }
    print(f"\nPASS criterion 4: sizes {rates} in [0.035, 0.065] ({total_elapsed:.0f}s)")


def test_criterion_05_power_at_least_090(power_run):
    """Power >= 0.9 for both focused estimators at a forward effect of 0.3."""
    ivw = power_run.rejection_rates["focused_ivw"]["dy"]
    median = power_run.rejection_rates["focused_median"]["dy"]
    assert ivw >= 0.9
    assert median >= 0.9
    print(f"\nPASS criterion 5: power ivw={ivw:.3f}, median={median:.3f} >= 0.9")


def test_criterion_06_focusing_improves_valid_share(null_runs):
    """Valid-instrument share in the focused set beats the screened set by >= 0.10."""
    report, _ = null_runs[1.5]
    for direction in ("dy", "yd"):
        focused = report.valid_iv_proportions["focused_ivw"][direction]
        overall = report.valid_iv_proportions["overall_ivw"][direction]
        assert focused - overall >= 0.10, (direction, focused, overall)
    f, o = (
        report.valid_iv_proportions["focused_ivw"]["dy"],
        report.valid_iv_proportions["overall_ivw"]["dy"],
    )
    print(f"\nPASS criterion 6: valid share focused {f:.3f} vs screened {o:.3f}")


def test_criterion_07_benchmark_inflation_focused_level(kappa07_run):
    """Conventional MR-Median inflates past 0.10 while focused IVW stays near level."""
    mr_median_rate = kappa07_run.rejection_rates["mr_median"]["dy"]
    focused_rate_dy = kappa07_run.rejection_rates["focused_ivw"]["dy"]
    focused_rate_yd = kappa07_run.rejection_rates["focused_ivw"]["yd"]
    assert mr_median_rate > 0.10
    assert 0.03 <= focused_rate_dy <= 0.08
    assert 0.03 <= focused_rate_yd <= 0.08
    print(
        f"\nPASS criterion 7: mr-median {mr_median_rate:.3f} > 0.10, "
        f"focused ivw ({focused_rate_dy:.3f}, {focused_rate_yd:.3f}) in [0.03, 0.08]"
    )


def _forecast_panel(kind: str) -> tuple[Panel, np.ndarray]:
    """Hand-built 20-SNP panels spanning low, moderate, and high power."""
    p = 20
    rng = np.random.default_rng({"null": 80, "moderate": 81, "opposed": 82}[kind])
    ids = [f"v{j}" for j in range(p)]
    se_y = np.full(p, 0.05)
    if kind == "null":
        # pure size check: forecast must equal the level
        beta_d = rng.uniform(0.3, 0.6, p) * rng.choice([-1.0, 1.0], p)
        mus = np.zeros(p)
    elif kind == "moderate":
        # aligned signal: all contributions push the statistic the same way
        beta_d = rng.uniform(0.3, 0.6, p)
        mus = rng.uniform(0.6, 1.4, p)
    else:
        # signals opposing the exposure signs cancel in the weighted mean,
        # leaving an under-dispersed statistic with power below the level
        beta_d = rng.uniform(0.3, 0.6, p) * rng.choice([-1.0, 1.0], p)
        mus = rng.uniform(0.5, 1.2, p)
    # beta_y values are irrelevant to the forecast (it conditions on the
    # set); fill them consistently with the hypothesized signal
    beta_y = mus * se_y
    panel = Panel.from_arrays(ids, beta_d, np.full(p, 0.05), beta_y, se_y)
    return panel, mus


def _conditional_mc_power(panel, mus, cfg, n_draws=10_000, seed=0):
    """Oracle: conditional draws of the retained outcome statistics."""
    a, b = -cfg.tau_f - mus, cfg.tau_f - mus
    z = stats.truncnorm.rvs(
        a, b, loc=mus, scale=1.0, size=(n_draws, len(panel)),
        random_state=np.random.default_rng(seed),
    )
    weights = (panel.beta_d / panel.se_y) ** 2
    ratios = (z * panel.se_y) / panel.beta_d
    psi = (ratios * weights).sum(axis=1) / weights.sum()
    threshold = std_quantile(1.0 - cfg.alpha / 2.0) * math.sqrt(cfg.null_var / float(weights.sum()))
    return float(np.mean(np.abs(psi) >= threshold))


def test_criterion_08_power_forecast_matches_conditional_mc():
    """Analytic forecast within +-0.05 of a 10,000-draw conditional oracle."""
    cfg = FocusConfig(tau_f=1.5, tau_s=0.0, alpha=0.05)
    results = {}
    for seed, kind in enumerate(("null", "moderate", "opposed"), start=8001):
        panel, mus = _forecast_panel(kind)
        everything = np.ones(len(panel), dtype=bool)
        forecast = power_forecast(panel, everything, mus, cfg, Direction.D_TO_Y)
        mc = _conditional_mc_power(panel, mus, cfg, seed=seed)
        assert abs(forecast.predicted_power - mc) <= 0.05, (kind, forecast.predicted_power, mc)
        results[kind] = (round(forecast.predicted_power, 3), round(mc, 3))
    print(f"\nPASS criterion 8: forecast vs conditional MC {results}")


def test_criterion_09_estimator_oracle_equivalences():
    """IVW == WLS through origin (1e-12); Egger == normal equations (1e-10);
    median == sort oracle (exact); on random panels."""
    rng = np.random.default_rng(909)
    for _ in range(100):
        panel = make_random_panel(rng, p=20)
        # at tau_s = 0 the conventional methods aggregate over every SNP
        ivw = overall_ivw(panel, Direction.D_TO_Y, 0.0)
        assert ivw.focused_size == len(panel)
        est = ivw.estimate
        sw = 1.0 / panel.se_y
        coef, *_ = np.linalg.lstsq((sw * panel.beta_d)[:, None], sw * panel.beta_y, rcond=None)
        assert est == pytest.approx(float(coef[0]), abs=1e-12)

        egger = mr_egger(panel, Direction.D_TO_Y, 0.0)
        flip = panel.beta_d < 0
        x = np.where(flip, -panel.beta_d, panel.beta_d)
        y = np.where(flip, -panel.beta_y, panel.beta_y)
        w = 1.0 / panel.se_y**2
        sums = (w.sum(), (w * x).sum(), (w * x * x).sum(), (w * y).sum(), (w * x * y).sum())
        sw_, sx, sxx, sy, sxy = sums
        det = sw_ * sxx - sx * sx
        assert egger.estimate == pytest.approx((sw_ * sxy - sx * sy) / det, abs=1e-10)
        assert egger.intercept == pytest.approx((sxx * sy - sx * sxy) / det, abs=1e-10)

        med = mr_median(panel, Direction.D_TO_Y, 0.0)
        assert med.focused_size == len(panel)
        med = med.estimate
        ratios = sorted(panel.beta_y / panel.beta_d)
        assert med == (ratios[9] + ratios[10]) / 2.0
    print("\nPASS criterion 9: IVW/WLS 1e-12, Egger 1e-10, median exact on 100 panels")


def test_criterion_10_cli_deterministic_and_empty_set_path(tmp_path):
    """Byte-identical CLI output under a fixed seed; empty-set rejection path."""
    args = [
        "test",
        "--exposure", str(FIXTURES / "exposure_50.tsv"),
        "--outcome", str(FIXTURES / "outcome_50.tsv"),
        "--seed", "7",
        "--estimator", "median",  # exercises the bootstrap rng too
        "--direction", "both",
    ]
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    empty_out = tmp_path / "empty.json"
    code = main(
        [
            "test",
            "--exposure", str(FIXTURES / "exposure_empty.tsv"),
            "--outcome", str(FIXTURES / "outcome_empty.tsv"),
            "--seed", "7",
            "--direction", "dy",
            "--out", str(empty_out),
        ]
    )
    assert code == 0
    row = json.loads(empty_out.read_text())["results"][0]
    assert row["reject"] is True and row["empty_set_reject"] is True
    print("\nPASS criterion 10: CLI byte-identical under --seed 7; empty-set path rejects")
