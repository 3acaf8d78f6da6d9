"""Shared test helpers: random ground truths and panels with known structure."""

import numpy as np
import pytest

from bidirmr.focusing import Panel
from bidirmr.model import TruthConfig

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # More examples for the properties that set no count of their own (the
    # batched median law against its per-row oracle). CI runs tier-1 with
    # `--hypothesis-profile=ci`; a local run keeps hypothesis' default.
    settings.register_profile("ci", max_examples=1000)


def make_random_truth(
    rng: np.random.Generator,
    p: int = 12,
    beta_dy: float | None = None,
    beta_yd: float | None = None,
    ensure_valid_both: bool = True,
) -> TruthConfig:
    """Random truth with exact-zero structure and both valid classes planted.

    Causal effects default to uniform draws on [-0.8, 0.8] (kept away from
    the beta_dy * beta_yd = 1 hyperbola by construction).
    """
    if beta_dy is None:
        beta_dy = float(rng.uniform(-0.8, 0.8))
    if beta_yd is None:
        beta_yd = float(rng.uniform(-0.8, 0.8))
    pi_d = np.where(rng.random(p) < 0.6, rng.normal(0.0, 1.0, p), 0.0)
    pi_y = np.where(rng.random(p) < 0.6, rng.normal(0.0, 1.0, p), 0.0)
    if ensure_valid_both:
        # Plant one valid instrument per direction so no class is empty.
        pi_d[0], pi_y[0] = float(rng.uniform(0.5, 2.0)), 0.0
        pi_d[1], pi_y[1] = 0.0, float(rng.uniform(0.5, 2.0))
    se_d = rng.uniform(0.05, 0.3, p)
    se_y = rng.uniform(0.05, 0.3, p)
    return TruthConfig(
        pi_d=pi_d, pi_y=pi_y, beta_dy=beta_dy, beta_yd=beta_yd, se_d=se_d, se_y=se_y
    )


def make_random_panel(rng: np.random.Generator, p: int = 50) -> Panel:
    """Unstructured random panel for estimator-identity checks."""
    return Panel.from_arrays(
        ids=[f"v{j}" for j in range(p)],
        beta_d=rng.normal(0.0, 0.5, p),
        se_d=rng.uniform(0.02, 0.2, p),
        beta_y=rng.normal(0.0, 0.5, p),
        se_y=rng.uniform(0.02, 0.2, p),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
