"""A grid cell's report equals the scenario run on that cell alone.

``run_scenario`` draws each chunk once and shares the activations, class
shares and correlation between its (beta_dy, beta_yd) cells, and a trait's
association at a zero effect of the other trait on it, with its exposure
side, between the cells with that zero (of that sign); no cell may see
another's work. Generated seeds (3 to 200 SNPs, some seed effects -0.0), 1 to
5 cells with duplicates and zeros of both signs, every method, with and
without separation, and 1, 3 or the default number of replications per
chunk. The median methods' undecided
rows of every cell wait in one pool of exact laws, which no cell may see
either: a median grid that reaches the law must equal its cells alone.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr import focusing, simulation  # noqa: E402
from bidirmr.focusing import FocusConfig, Method  # noqa: E402
from bidirmr.simulation import (  # noqa: E402
    ScenarioConfig,
    SeedEffects,
    run_scenario,
)

PAIRS = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (-0.4, 0.25), (0.6, -0.5), (1e-3, 2.0),
         (-0.0, 0.3), (0.3, -0.0), (-0.0, -0.0)]


def random_seed(p: int, entropy: int) -> SeedEffects:
    """Seed effects of every strength, some exactly zero."""
    rng = np.random.default_rng(entropy)
    se_d, se_y = rng.uniform(0.005, 0.02, size=(2, p))
    snr_d, snr_y = rng.uniform(0.0, 12.0, size=(2, p)) * (rng.random((2, p)) < 0.85)
    signs = np.where(rng.random((2, p)) < 0.5, -1.0, 1.0)
    return SeedEffects(
        alpha_d=signs[0] * snr_d * se_d, alpha_y=signs[1] * snr_y * se_y, se_d=se_d, se_y=se_y
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    p=st.integers(3, 200),
    entropy=st.integers(0, 2**32 - 1),
    pairs=st.lists(st.sampled_from(PAIRS), min_size=1, max_size=5),
    n_reps=st.integers(1, 7),
    c1=st.sampled_from([None, 2.0]),
    tau_s=st.sampled_from([None, 0.0, 2.5]),
    rows=st.sampled_from([1, 3, None]),
)
# both signs of a zero effect beside the null cell: cells that share a trait's association
# share it by the zero's bits
@example(p=40, entropy=11, pairs=[(0.0, 0.0), (-0.0, -0.0), (0.3, -0.0), (-0.0, 0.3), (0.3, 0.0)],
         n_reps=7, c1=None, tau_s=0.0, rows=3)
def test_each_grid_cell_equals_its_own_scenario(p, entropy, pairs, n_reps, c1, tau_s, rows):
    focus = FocusConfig(tau_f=1.5, tau_s=tau_s)
    seed = random_seed(p, entropy)
    scenario = ScenarioConfig(
        kappa=0.8, cells=tuple(pairs), n_reps=n_reps, focus=focus, methods=tuple(Method),
        rng_seed=entropy, enforce_separation_c1=c1,
    )
    chunk_values = simulation._CHUNK_VALUES if rows is None else rows * p
    with mock.patch.object(simulation, "_CHUNK_VALUES", chunk_values):
        reports = run_scenario(seed, scenario)
    assert len(reports) == len(pairs)
    for pair, report in zip(pairs, reports):
        [alone] = run_scenario(seed, replace(scenario, cells=(pair,)))
        assert repr(report) == repr(alone)


@pytest.mark.parametrize("rows", [2, None])
def test_each_median_grid_cell_equals_its_own_scenario(rows):
    seed = random_seed(150, 7)
    scenario = ScenarioConfig(
        kappa=0.8, cells=tuple(PAIRS[:4]), n_reps=40, focus=FocusConfig(tau_f=1.5),
        methods=(Method.FOCUSED_MEDIAN, Method.MR_MEDIAN), rng_seed=7, enforce_separation_c1=2.0,
    )
    chunk_values = simulation._CHUNK_VALUES if rows is None else rows * seed.p
    with mock.patch.object(simulation, "_CHUNK_VALUES", chunk_values), \
            mock.patch.object(focusing, "_EvenLaws", wraps=focusing._EvenLaws) as laws:
        reports = run_scenario(seed, scenario)
        assert laws.call_count >= 1
        for pair, report in zip(PAIRS, reports):
            [alone] = run_scenario(seed, replace(scenario, cells=(pair,)))
            assert repr(report) == repr(alone)
