"""Truth generation, panel sampling, and scenario aggregation."""

import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from bidirmr import simulation
from bidirmr.errors import GwasParseError, InputError
from bidirmr.focusing import (
    Direction,
    FocusConfig,
    Method,
    check_separation,
    relevant_mask,
)
from bidirmr.model import IvClass, TruthConfig, iv_class_masks, reduced_form
from bidirmr.simulation import (
    ScenarioConfig,
    SeedEffects,
    enforce_separation,
    generate_truth,
    load_seed_effects,
    run_scenario,
    simulate_panel,
    synthetic_seed,
)


def mean_rho_over_draws(seed, kappa, n_draws, seed0=0):
    total = np.zeros(4)
    for i in range(n_draws):
        truth = generate_truth(seed, kappa, np.random.default_rng(seed0 + i))
        masks = iv_class_masks(truth, zero_tol=0.0)
        total += np.array(
            [
                masks[IvClass.NULL].sum(),
                masks[IvClass.VALID_DY].sum(),
                masks[IvClass.VALID_YD].sum(),
                masks[IvClass.PLEIOTROPIC].sum(),
            ]
        ) / truth.p
    return total / n_draws


class TestSyntheticSeed:
    def test_lengths(self):
        rng = np.random.default_rng(0)
        assert synthetic_seed(394, rng).p == 394
        assert synthetic_seed(1332, np.random.default_rng(1)).p == 1332

    def test_rejects_tiny_panels(self):
        with pytest.raises(InputError):
            synthetic_seed(5, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = synthetic_seed(100, np.random.default_rng(123))
        b = synthetic_seed(100, np.random.default_rng(123))
        for name in ("alpha_d", "alpha_y", "se_d", "se_y"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_se_scale_tracks_pseudo_sample_size(self):
        seed = synthetic_seed(200, np.random.default_rng(2))
        assert 0.5 / math.sqrt(1e5) < float(np.median(seed.se_d)) < 2.0 / math.sqrt(1e5)


class TestGenerateTruth:
    def test_zero_seed_effects_stay_zero(self):
        seed = SeedEffects(
            alpha_d=np.ones(20), alpha_y=np.zeros(20),
            se_d=np.full(20, 0.1), se_y=np.full(20, 0.1),
        )
        truth = generate_truth(seed, 1.0, np.random.default_rng(0))
        assert np.all(truth.pi_y == 0.0)

    def test_active_effects_equal_seed_values(self):
        seed = synthetic_seed(50, np.random.default_rng(3))
        truth = generate_truth(seed, 1.0, np.random.default_rng(4))
        active = truth.pi_d != 0.0
        np.testing.assert_array_equal(truth.pi_d[active], seed.alpha_d[active])

    def test_betas_copied(self):
        seed = synthetic_seed(30, np.random.default_rng(5))
        truth = generate_truth(seed, 1.0, np.random.default_rng(6), beta_dy=0.3, beta_yd=-0.1)
        assert truth.beta_dy == 0.3 and truth.beta_yd == -0.1

    def test_class_shares_near_reference_mix(self):
        # reference shares (0.15, 0.29, 0.29, 0.27); with rank-probability
        # activation the null and pleiotropic shares are tied to each other
        # (their expected difference is exactly -1/p), so only a coarser
        # envelope is attainable for those two components
        seed = synthetic_seed(394, np.random.default_rng(1))
        rho = mean_rho_over_draws(seed, 1.0, 300)
        targets = np.array([0.15, 0.29, 0.29, 0.27])
        assert np.all(np.abs(rho - targets) <= 0.08)
        assert abs(rho[1] - 0.29) <= 0.05 and abs(rho[2] - 0.29) <= 0.05

    def test_smaller_exponent_activates_more(self):
        # reference shares for the 0.7 exponent: (0.17, 0.25, 0.37, 0.21);
        # the generator is symmetric across traits, so the asymmetric
        # (0.25, 0.37) pair is only matched as an envelope
        seed = synthetic_seed(394, np.random.default_rng(1))
        rho_1 = mean_rho_over_draws(seed, 1.0, 200)
        rho_07 = mean_rho_over_draws(seed, 0.7, 200, seed0=50_000)
        targets = np.array([0.17, 0.25, 0.37, 0.21])
        assert np.all(np.abs(rho_07 - targets) <= 0.12)
        assert abs(rho_07[1] - rho_07[2]) <= 0.02
        assert rho_07[0] < rho_1[0]
        assert rho_07[3] > rho_1[3]

    def test_class_counts_partition_every_draw(self):
        seed = synthetic_seed(60, np.random.default_rng(7))
        for i in range(50):
            truth = generate_truth(seed, 0.9, np.random.default_rng(i))
            masks = iv_class_masks(truth, zero_tol=0.0)
            assert (sum(m.astype(int) for m in masks.values()) == 1).all()

    def test_rank_ties_broken_by_input_order(self):
        # identical seed magnitudes: activation probabilities are the rank
        # permutation 1/p..1 in input order, so with full-probability rank p
        # the last SNP is always active
        p = 10
        seed = SeedEffects(
            alpha_d=np.full(p, 0.5), alpha_y=np.full(p, 0.5),
            se_d=np.full(p, 0.1), se_y=np.full(p, 0.1),
        )
        always_active_last = all(
            generate_truth(seed, 1.0, np.random.default_rng(i)).pi_d[-1] != 0.0
            for i in range(100)
        )
        assert always_active_last


class TestEnforceSeparation:
    def test_separation_holds_after_amplification(self):
        seed = synthetic_seed(200, np.random.default_rng(8))
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        for i in range(20):
            truth = generate_truth(seed, 1.0, np.random.default_rng(i))
            amplified = enforce_separation(truth, cfg, c1=2.0)
            assert check_separation(amplified, cfg, 2.0, Direction.D_TO_Y)
            assert check_separation(amplified, cfg, 2.0, Direction.Y_TO_D)

    def test_preserves_activation_pattern_and_signs(self):
        seed = synthetic_seed(100, np.random.default_rng(9))
        truth = generate_truth(seed, 1.0, np.random.default_rng(10))
        amplified = enforce_separation(truth, FocusConfig(tau_f=1.5, alpha=0.05), c1=2.0)
        np.testing.assert_array_equal(truth.pi_d == 0.0, amplified.pi_d == 0.0)
        np.testing.assert_array_equal(np.sign(truth.pi_d), np.sign(amplified.pi_d))
        assert np.all(np.abs(amplified.pi_y) >= np.abs(truth.pi_y))

    def test_amplifying_while_drawing_equals_amplifying_after(self):
        seed = synthetic_seed(150, np.random.default_rng(11))
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        floor = simulation._separation_floor(seed.p, cfg, 2.0)
        for i in range(10):
            uniforms = np.random.default_rng(i).random((2, seed.p))
            probs = seed.activation_probabilities(0.8)
            pi_d, pi_y = simulation._activated(seed, probs, uniforms, floor)
            drawn = TruthConfig(pi_d, pi_y, 0.3, -0.1, seed.se_d, seed.se_y)
            after = enforce_separation(
                generate_truth(seed, 0.8, np.random.default_rng(i), 0.3, -0.1), cfg, c1=2.0
            )
            for name in ("pi_d", "pi_y", "se_d", "se_y", "beta_dy", "beta_yd"):
                np.testing.assert_array_equal(getattr(drawn, name), getattr(after, name))

    def test_rejects_nonpositive_c1(self):
        seed = synthetic_seed(40, np.random.default_rng(12))
        truth = generate_truth(seed, 1.0, np.random.default_rng(0))
        with pytest.raises(InputError):
            enforce_separation(truth, FocusConfig(), c1=0.0)

    @pytest.mark.parametrize("tau_f, c1", [(math.inf, 2.0), (1.5, math.inf)])
    def test_rejects_an_infinite_floor_before_any_draw(self, tau_f, c1, monkeypatch):
        seed = synthetic_seed(40, np.random.default_rng(12))
        truth = generate_truth(seed, 1.0, np.random.default_rng(0))
        cfg = FocusConfig(tau_f=tau_f)
        with pytest.raises(InputError, match="--tau-f .* finite separation floor"):
            enforce_separation(truth, cfg, c1=c1)
        monkeypatch.setattr(np.random, "default_rng", _no_draws)
        with pytest.raises(InputError, match="--enforce-separation"):
            run_scenario(seed, ScenarioConfig(n_reps=3, focus=cfg, enforce_separation_c1=c1))


class TestSimulatePanel:
    def test_vanishing_noise_recovers_reduced_form(self):
        truth = TruthConfig([0.5, 0.0], [0.0, 0.4], 0.3, 0.1,
                            [1e-12, 1e-12], [1e-12, 1e-12])
        panel = simulate_panel(truth, np.random.default_rng(0))
        rf = reduced_form(truth)
        np.testing.assert_allclose(panel.beta_d, rf.gamma_d, atol=1e-10)
        np.testing.assert_allclose(panel.beta_y, rf.gamma_y, atol=1e-10)

    def test_noise_mean_and_variance(self):
        p, reps = 5, 10_000
        truth = TruthConfig(
            [0.5, -0.2, 0.0, 0.1, 0.3], [0.0, 0.3, 0.2, 0.0, -0.4], 0.2, 0.1,
            np.full(p, 0.07), np.full(p, 0.11),
        )
        rf = reduced_form(truth)
        draws = np.empty((reps, p))
        rng = np.random.default_rng(11)
        for r in range(reps):
            draws[r] = simulate_panel(truth, rng).beta_y
        np.testing.assert_allclose(
            draws.mean(axis=0), rf.gamma_y, atol=4 * 0.11 / math.sqrt(reps)
        )
        np.testing.assert_allclose(draws.var(axis=0), 0.11**2, rtol=0.10)

    def test_standard_errors_copied(self):
        seed = synthetic_seed(40, np.random.default_rng(12))
        truth = generate_truth(seed, 1.0, np.random.default_rng(13))
        panel = simulate_panel(truth, np.random.default_rng(14))
        np.testing.assert_array_equal(panel.se_d, truth.se_d)
        np.testing.assert_array_equal(panel.se_y, truth.se_y)


class TestActivationProbabilities:
    def test_rank_power(self):
        seed = synthetic_seed(60, np.random.default_rng(3))
        ranks = []
        for alpha, se in ((seed.alpha_d, seed.se_d), (seed.alpha_y, seed.se_y)):
            snr = (np.abs(alpha) / se).tolist()
            ranks.append(np.array([1 + sum(s < v for s in snr) for v in snr]))  # distinct values
        prob_d, prob_y = seed.activation_probabilities(0.7)
        for prob, rank in zip((prob_d, prob_y), ranks):
            np.testing.assert_array_equal(prob, (rank / 60) ** 0.7)
        np.testing.assert_array_equal(seed.activation_probabilities(2.0)[1], (ranks[1] / 60) ** 2.0)

    def test_generate_truth_draws_by_them(self):
        seed = synthetic_seed(60, np.random.default_rng(3))
        prob_d, prob_y = seed.activation_probabilities(1.3)
        truth = generate_truth(seed, 1.3, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        active_d = rng.random(60) < prob_d
        active_y = rng.random(60) < prob_y
        np.testing.assert_array_equal(truth.pi_d, np.where(active_d, seed.alpha_d, 0.0))
        np.testing.assert_array_equal(truth.pi_y, np.where(active_y, seed.alpha_y, 0.0))


class TestReplicationStreams:
    def test_one_child_per_replication_matches_one_bulk_spawn(self):
        bulk = np.random.SeedSequence(entropy=17, spawn_key=(0,)).spawn(6)
        parent = np.random.SeedSequence(entropy=17, spawn_key=(0,))
        one_by_one = [parent.spawn(1)[0] for _ in range(6)]
        for a, b in zip(bulk, one_by_one):
            assert a.spawn_key == b.spawn_key
            np.testing.assert_array_equal(a.generate_state(8), b.generate_state(8))

    def test_a_scenario_makes_no_stream_object_per_replication(self, monkeypatch):
        seed = synthetic_seed(40, np.random.default_rng(3))
        scenario = ScenarioConfig(n_reps=11, methods=(Method.FOCUSED_IVW,), rng_seed=8)
        whole = run_scenario(seed, scenario)
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 4 * 40)  # chunks of 4, 4 and 3
        spawned = []

        class CountingSeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        with mock.patch.object(np.random, "SeedSequence", CountingSeedSequence), \
                mock.patch.object(np.random, "default_rng", wraps=np.random.default_rng) as rngs, \
                mock.patch.object(np.random, "PCG64", wraps=np.random.PCG64) as bit_generators:
            chunked = run_scenario(seed, scenario)
        assert spawned == [] and rngs.call_count == 0
        assert bit_generators.call_count <= 1
        assert chunked == whole


class TestScenarioConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_reps", 2.5, "n_reps must be an integer"),
            ("n_reps", "3", "n_reps must be an integer"),
            ("kappa", "1", "kappa must be a positive number"),
            ("kappa", 0.0, "kappa must be a positive number"),
            ("methods", ("nope",), "'nope' is not a valid Method; choose from focused_ivw"),
            ("cells", (), "nonempty sequence"),
            ("cells", (0.3, 0.0), "cell 0.3 is not"),
            ("cells", ((0.3,),), "is not a \\(beta_dy, beta_yd\\) pair"),
            ("cells", ((0.3, "0"),), "is not a \\(beta_dy, beta_yd\\) pair"),
            ("cells", ((0.0, 0.0), (0.3, 0.0, 0.1)), "is not a \\(beta_dy, beta_yd\\) pair"),
            ("cells", ((10**400, 0.0),), "too large for a float"),
            ("cells", ((0.0, 0.0), (2.0, 0.5)), "beta_dy \\* beta_yd must be other than 1"),
            ("n_reps", True, "n_reps must be an integer"),
            ("kappa", True, "kappa must be a positive number"),
        ],
    )
    def test_bad_field_is_an_input_error_when_built(self, field, value, message):
        with pytest.raises(InputError, match=message):
            ScenarioConfig(**{field: value})

    def test_cells_become_float_pairs_keeping_signed_zeros(self):
        scenario = ScenarioConfig(cells=[(0, -0.0), [np.float64(0.3), 1]], n_reps=np.int64(3))
        assert scenario.cells == ((0.0, -0.0), (0.3, 1.0))
        assert all(type(beta) is float for cell in scenario.cells for beta in cell)
        assert math.copysign(1.0, scenario.cells[0][1]) == -1.0
        assert type(scenario.n_reps) is int and scenario.n_reps == 3


class TestRunScenario:
    def _scenario(self, **overrides):
        base = dict(
            kappa=1.0,
            cells=((0.0, 0.0),),
            n_reps=25,
            focus=FocusConfig(tau_f=1.5, alpha=0.05),
            methods=(Method.FOCUSED_IVW, Method.FOCUSED_MEDIAN, Method.OVERALL_IVW),
            rng_seed=99,
            enforce_separation_c1=2.0,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_deterministic(self):
        seed = synthetic_seed(80, np.random.default_rng(15))
        scenario = self._scenario()
        assert run_scenario(seed, scenario) == run_scenario(seed, scenario)

    def test_rho_components_sum_to_one(self):
        seed = synthetic_seed(80, np.random.default_rng(16))
        [report] = run_scenario(seed, self._scenario(n_reps=40))
        assert sum(report.mean_rho) == pytest.approx(1.0, abs=1e-12)

    def test_valid_proportion_focused_exceeds_overall_under_null(self):
        seed = synthetic_seed(200, np.random.default_rng(17))
        [report] = run_scenario(seed, self._scenario(n_reps=60))
        focused = report.valid_iv_proportions["focused_ivw"]["dy"]
        overall = report.valid_iv_proportions["overall_ivw"]["dy"]
        assert focused > overall

    def test_reverse_valid_snps_rarely_pass_relevance(self):
        # with no reverse effect, SNPs acting only on the outcome trait are
        # null-associated with the exposure: per-SNP relevance frequency
        # matches the two-sided 1/p tail bound
        seed = synthetic_seed(150, np.random.default_rng(18))
        cfg = FocusConfig(tau_f=1.5, alpha=0.05)
        tau_s = cfg.resolve_tau_s(seed.p)
        reps, hits, exposed = 400, 0, 0
        for i in range(reps):
            rng = np.random.default_rng(40_000 + i)
            truth = generate_truth(seed, 1.0, rng)
            panel = simulate_panel(truth, rng)
            masks = iv_class_masks(truth, zero_tol=0.0)
            relevant = relevant_mask(panel, Direction.D_TO_Y, tau_s)
            hits += int((relevant & masks[IvClass.VALID_YD]).sum())
            exposed += int(masks[IvClass.VALID_YD].sum())
        rate = hits / exposed
        bound = 2.0 / seed.p
        assert rate <= bound + 4.0 * math.sqrt(bound / exposed)

    def test_errors_counted_not_fatal(self):
        # an impossible relevance threshold starves the benchmark methods;
        # replications are recorded as errors and the run completes
        seed = synthetic_seed(40, np.random.default_rng(19))
        scenario = self._scenario(
            methods=(Method.MR_EGGER,),
            focus=FocusConfig(tau_f=1.5, tau_s=1e9, alpha=0.05),
            n_reps=5,
            enforce_separation_c1=None,
        )
        [report] = run_scenario(seed, scenario)
        assert report.error_counts["mr_egger"]["dy"] == 5
        assert report.rejection_rates["mr_egger"]["dy"] is None

    def test_underflowing_weights_are_counted_as_errors(self):
        # exposure betas of order 1e-200 against outcome errors of 1: the D->Y
        # IVW weights all underflow to zero in every replication
        p = 6
        seed = SeedEffects(
            alpha_d=np.zeros(p), alpha_y=np.full(p, 0.5),
            se_d=np.full(p, 1e-200), se_y=np.ones(p),
        )
        scenario = self._scenario(
            methods=(Method.FOCUSED_IVW, Method.OVERALL_IVW, Method.FOCUSED_MEDIAN),
            focus=FocusConfig(tau_f=math.inf, tau_s=0.0),
            n_reps=7,
            enforce_separation_c1=None,
        )
        [report] = run_scenario(seed, scenario)
        assert report.error_counts["focused_ivw"]["dy"] == 7
        assert report.error_counts["overall_ivw"]["dy"] == 7
        assert report.rejection_rates["focused_ivw"]["dy"] is None
        assert report.error_counts["focused_median"]["dy"] == 0

    def test_grid_runs_each_cell(self):
        seed = synthetic_seed(60, np.random.default_rng(20))
        cells = ((0.0, 0.0), (0.3, 0.0))
        scenario = self._scenario(methods=(Method.FOCUSED_IVW,), n_reps=10, cells=cells)
        reports = run_scenario(seed, scenario)
        assert len(reports) == len(cells)
        assert all(rep.n_reps == 10 for rep in reports)


class TestGrid:
    """Grid cells share each chunk's draws and pair-free work; results must not notice."""

    def _scenario(self, **overrides):
        base = dict(
            kappa=0.9, n_reps=9, focus=FocusConfig(tau_f=1.5), methods=tuple(Method),
            rng_seed=31, enforce_separation_c1=2.0,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_each_cell_equals_its_own_scenario(self):
        seed = synthetic_seed(50, np.random.default_rng(25))
        scenario = self._scenario()
        pairs = ((0.0, 0.0), (0.3, -0.2), (0.0, 0.0), (-0.5, 0.4))
        reports = run_scenario(seed, replace(scenario, cells=pairs))
        assert len(reports) == len(pairs)
        for pair, report in zip(pairs, reports):
            [alone] = run_scenario(seed, replace(scenario, cells=(pair,)))
            assert repr(report) == repr(alone)
        assert repr(reports[0]) == repr(reports[2])
        assert reports[0].rejection_rates != reports[3].rejection_rates

    @pytest.mark.parametrize("pairs, computed", [
        # a trait's association at a zero effect of the other on it is shared across cells
        (((0.0, 0.0), (0.3, 0.0), (0.0, 0.3)),
         [("d", 0.0, 0.0), ("y", 0.0, 0.0), ("y", 0.3, 0.0), ("d", 0.3, 0.0)]),
        # but +0.0 and -0.0 are two zeros, and a nonzero effect is never shared
        (((0.0, 0.0), (0.3, -0.0), (0.3, 0.0), (0.5, 0.2), (0.5, 0.2)),
         [("d", 0.0, 0.0), ("y", 0.0, 0.0), ("d", -0.0, 0.3), ("y", 0.3, -0.0),
          ("y", 0.3, 0.0), ("d", 0.2, 0.5), ("y", 0.5, 0.2), ("d", 0.2, 0.5), ("y", 0.5, 0.2)]),
    ])
    def test_pair_free_work_runs_once_per_chunk(self, pairs, computed, monkeypatch):
        activated, effects, exposures = [], [], []
        real_activated = simulation._activated
        real_effect, real_exposure = simulation._marginal_effect, simulation._Exposure

        def spy_activated(seed, kappa, uniforms, min_snr):
            activated.append(real_activated(seed, kappa, uniforms, min_snr))
            return activated[-1]

        def trait(pi, pi_other):
            pi_d, pi_y = activated[-1]
            return {(id(pi_d), id(pi_y)): "d", (id(pi_y), id(pi_d)): "y"}[id(pi), id(pi_other)]

        def spy_effect(pi, pi_other, beta_in, beta_out):
            effects.append((len(activated), pi.shape, trait(pi, pi_other), repr(beta_in),
                            repr(beta_out)))
            return real_effect(pi, pi_other, beta_in, beta_out)

        def spy_exposure(exp_beta, exp_se, out_se, tau_s):
            side = "d" if exp_se is seed.se_d and out_se is seed.se_y else "y"
            exposures.append((len(activated), exp_beta.shape, side))
            return real_exposure(exp_beta, exp_se, out_se, tau_s)

        monkeypatch.setattr(simulation, "_activated", spy_activated)
        monkeypatch.setattr(simulation, "_marginal_effect", spy_effect)
        monkeypatch.setattr(simulation, "_Exposure", spy_exposure)
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 100)
        seed = synthetic_seed(40, np.random.default_rng(26))
        scenario = self._scenario(n_reps=5, methods=(Method.FOCUSED_IVW,), cells=pairs)
        reports = run_scenario(seed, scenario)
        # chunks of 2, 2 and 1 replications, each drawn and activated once
        assert [pi_d.shape for pi_d, _ in activated] == [(2, 40), (2, 40), (1, 40)]
        # and the cells take turns on each chunk, one (R, p) array at a time, computing a
        # trait's association, and its exposure side, once for the cells that share it
        expected = [(k, (r, 40), t, repr(b_in), repr(b_out))
                    for k, r in ((1, 2), (2, 2), (3, 1)) for t, b_in, b_out in computed]
        assert effects == expected
        assert exposures == [(k, shape, t) for k, shape, t, _, _ in expected]
        for pair, report in zip(pairs, reports):
            [alone] = run_scenario(seed, replace(scenario, cells=(pair,)))
            assert repr(report) == repr(alone)

    def test_memory_does_not_grow_with_the_number_of_cells(self):
        # what a chunk shares between cells is bounded: at most two associations per trait
        seed = synthetic_seed(200, np.random.default_rng(28))
        methods = (Method.FOCUSED_IVW, Method.OVERALL_IVW, Method.MR_EGGER)
        few = ((0.0, 0.0), (0.3, 0.0))
        many = ((0.0, 0.0), *((0.05 * k, 0.0) for k in range(1, 10)), (0.3, 0.2), (-0.2, 0.1))
        scenario = self._scenario(n_reps=2 * (simulation._CHUNK_VALUES // 200), methods=methods)

        def peak(cells):
            tracemalloc.start()
            try:
                run_scenario(seed, replace(scenario, cells=cells))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(few)  # what is computed once per process
        array_bytes = (simulation._CHUNK_VALUES // 200) * 200 * 8  # one (R, p) float array
        assert len(many) == 12
        assert abs(peak(many) - peak(few)) < array_bytes

    @pytest.mark.parametrize("bad", [(2.0, 0.5), (math.nan, 0.0), (0.0, math.inf)])
    def test_invalid_pair_in_a_later_cell_raises_before_any_draw(self, bad, monkeypatch):
        seed = synthetic_seed(40, np.random.default_rng(27))
        monkeypatch.setattr(np.random, "default_rng", _no_draws)
        with pytest.raises(InputError, match="beta_"):
            run_scenario(seed, self._scenario(cells=((0.0, 0.0), (0.3, 0.0), bad)))


def _no_draws(*args, **kwargs):
    raise AssertionError("a replication was drawn")


class TestChunks:
    """Replications go in chunks of ``max(1, _CHUNK_VALUES // p)``; results must not notice."""

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_report_identical_at_any_chunk_size(self, rows, monkeypatch):
        seed = synthetic_seed(90, np.random.default_rng(21))
        scenarios = [
            ScenarioConfig(
                kappa=0.8, cells=((0.2, 0.0),), n_reps=23, focus=focus, methods=tuple(Method),
                rng_seed=4,
            )
            for focus in (
                FocusConfig(tau_f=1.5, alpha=0.05),
                FocusConfig(tau_f=2.0, tau_s=2.5, alpha=0.1),
            )
        ]
        default = [repr(run_scenario(seed, scenario)) for scenario in scenarios]
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", rows * seed.p)
        assert [repr(run_scenario(seed, scenario)) for scenario in scenarios] == default

    def test_chunk_holds_the_bounded_number_of_values(self, monkeypatch):
        seen = []
        original = simulation._activated

        def spy(seed, kappa, uniforms, min_snr):
            seen.append(uniforms.shape)
            return original(seed, kappa, uniforms, min_snr)

        monkeypatch.setattr(simulation, "_activated", spy)
        seed = synthetic_seed(40, np.random.default_rng(22))
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 100)
        run_scenario(seed, ScenarioConfig(n_reps=7, rng_seed=1))
        assert seen == [(2, 2, 40)] * 3 + [(1, 2, 40)]
        seen.clear()
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 10)  # below p: one replication
        run_scenario(seed, ScenarioConfig(n_reps=2, rng_seed=1))
        assert seen == [(1, 2, 40)] * 2

    def test_rows_follow_the_documented_draw_order(self):
        # replication r: random(p) for D, random(p) for Y, standard_normal(p)
        # for D, then for Y, from child r of the SeedSequence; normal(loc,
        # scale) is loc + scale * standard_normal
        seed = synthetic_seed(30, np.random.default_rng(23))
        children = np.random.SeedSequence(entropy=8, spawn_key=(0,)).spawn(3)
        for child in children:
            a, b = np.random.default_rng(child), np.random.default_rng(child)
            truth = generate_truth(seed, 1.0, a, 0.2, 0.1)
            panel = simulate_panel(truth, a)
            active_d = b.random(30) < seed.activation_probabilities(1.0)[0]
            active_y = b.random(30) < seed.activation_probabilities(1.0)[1]
            rf = reduced_form(truth)
            np.testing.assert_array_equal(truth.pi_d, np.where(active_d, seed.alpha_d, 0.0))
            np.testing.assert_array_equal(truth.pi_y, np.where(active_y, seed.alpha_y, 0.0))
            np.testing.assert_array_equal(panel.beta_d, b.normal(rf.gamma_d, seed.se_d))
            np.testing.assert_array_equal(panel.beta_y, b.normal(rf.gamma_y, seed.se_y))

    def test_row_correlations_equal_corrcoef_bit_for_bit(self):
        rng = np.random.default_rng(24)
        a = rng.normal(size=(30, 57)) * (rng.random((30, 57)) < 0.6)
        b = rng.normal(size=(30, 57)) * (rng.random((30, 57)) < 0.6)
        want = [float(np.corrcoef(x, y)[0, 1]) for x, y in zip(a, b)]
        assert simulation._pearson_rows(a, b).tolist() == want

    def test_row_correlations_survive_extreme_magnitudes(self):
        # squares of 1e-301 underflow and of 1e301 overflow; powers of two scale exactly
        rng = np.random.default_rng(24)
        a = rng.normal(size=(30, 57)) * (rng.random((30, 57)) < 0.6)
        b = rng.normal(size=(30, 57)) * (rng.random((30, 57)) < 0.6)
        want = simulation._pearson_rows(a, b).tolist()
        assert simulation._pearson_rows(a * 2.0**-1000, b * 2.0**1000).tolist() == want
        assert simulation._pearson_rows(a * 2.0**1000, b * 2.0**-1000).tolist() == want
        tiny = simulation._pearson_rows(np.array([[0.0, 0.0, 0.01]]), np.array([[0, 0, 1e-300]]))
        assert tiny.tolist() == [pytest.approx(1.0, abs=1e-15)]

    def test_one_snp_panel(self):
        seed = SeedEffects(alpha_d=[0.5], alpha_y=[0.2], se_d=[0.1], se_y=[0.1])
        focus = FocusConfig(tau_s=0.0)
        [report] = run_scenario(seed, ScenarioConfig(n_reps=5, methods=tuple(Method), focus=focus))
        assert report.mean_corr_pi is None
        assert report.error_counts["mr_egger"] == {"dy": 5, "yd": 5}


class TestLoadSeedEffects:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text(
            "alpha_d\talpha_y\tse_d\tse_y\n"
            "0.1\t-0.2\t0.05\t0.04\n"
            "0.0\t0.3\t0.06\t0.05\n"
        )
        seed = load_seed_effects(str(path))
        assert seed.p == 2
        np.testing.assert_allclose(seed.alpha_y, [-0.2, 0.3])

    def test_missing_column(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("alpha_d\talpha_y\tse_d\n0.1\t0.2\t0.05\n")
        with pytest.raises(GwasParseError):
            load_seed_effects(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "seed.tsv"
        path.write_text("alpha_d\talpha_y\tse_d\tse_y\n0.1\tx\t0.05\t0.04\n")
        with pytest.raises(GwasParseError) as exc:
            load_seed_effects(str(path))
        assert exc.value.line == 2
