"""Bit lock on the exact SNP-bootstrap median scale.

``tests/golden_median_sd.json`` holds, as ``float.hex``, the scale
:func:`exact_bootstrap_median_sd` gives each sample of a fixed seeded corpus
and the ``se`` column :func:`direction_rows` gives two (R, p) chunks under the
focused median and MR-Median. The corpus has every n from 2 to 300, tied
values from rounded draws, +-inf ratios, two-cluster samples whose central
bracket holds more pair means than are enumerated at once, and one sample of
n = 1,500. Simulate reports carry rejection rates only, so a scale that moves
in its last bits rarely shows in their golden files; this lock does.

Regenerate the file (only from a commit whose output is the reference) with
``PYTHONPATH=src python tests/test_median_sd_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from bidirmr.focusing import FocusConfig, Method, direction_rows, exact_bootstrap_median_sd

GOLDEN = Path(__file__).parent / "golden_median_sd.json"


def samples() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261018)
    out = {}
    for n in range(2, 301):
        out[f"t2-n{n}"] = rng.standard_t(2, size=n)
        out[f"ties-n{n}"] = rng.normal(size=n).round(1)
    for n in range(2, 61):
        x = rng.normal(size=n)
        x[rng.random(n) < 0.15] = np.inf
        x[rng.random(n) < 0.15] = -np.inf
        out[f"inf-n{n}"] = x
    inf = math.inf
    for name, x in {
        "inf-only": [inf, inf], "inf-pair": [-inf, inf], "inf-mixed": [inf, -inf, 1.0, 2.0],
        "inf-left": [-inf, -inf, -inf, 0.5], "inf-right": [0.5, inf, inf, inf, inf, -1.0],
    }.items():
        out[name] = np.array(x)
    for k in (30, 50, 100, 150):
        out[f"clusters-k{k}"] = np.concatenate(
            (rng.uniform(0.0, 1e-3, k), rng.uniform(1.0, 1.001, k))
        )
        out[f"clusters-ties-k{k}"] = np.concatenate(
            (rng.uniform(0.0, 1e-3, k).round(5), rng.uniform(1.0, 1.001, k + 1).round(5))
        )
    out["normal-n1500"] = rng.normal(size=1500)
    return out


def chunk_rows() -> dict[str, object]:
    """Both median methods on one (R, p) chunk whose rows select sets of every
    size up to p, with +-inf ratios (tiny exposure betas) and tied and
    signed-zero outcome betas (in every ninth row). A standard error of 1e308 screens a SNP out
    of the relevant set, and one of 1e300 focuses every outcome beta; the least subnormal
    one keeps every exposure beta relevant, and only zero outcome betas focused."""
    rng = np.random.default_rng(7)
    R, p = 600, 300
    exp_beta = rng.normal(size=(R, p))
    exp_beta[rng.random((R, p)) < 0.05] = rng.choice([-1e-310, 1e-310])
    out_beta = rng.normal(size=(R, p)) * rng.uniform(0.2, 30.0, size=(R, 1))
    out_beta[::5] = out_beta[::5].round(0) + 0.5
    out_beta[::9][rng.random((len(out_beta[::9]), p)) < 0.02] = 0.0
    keep = rng.random((R, p)) < rng.uniform(0.0, 1.0, size=(R, 1))
    ones = np.ones(p)
    return {
        "focused_median": direction_rows(
            exp_beta, ones, out_beta, np.where(keep, 1e300, 5e-324),
            FocusConfig(tau_f=1.5), 0.0, Method.FOCUSED_MEDIAN,
        ),
        "mr_median": direction_rows(
            exp_beta, np.where(keep, 5e-324, 1e308), out_beta, ones,
            FocusConfig(tau_f=1.5), 1.0, Method.MR_MEDIAN,
        ),
    }


def render() -> dict:
    return {
        "exact_bootstrap_median_sd": {
            name: float.hex(exact_bootstrap_median_sd(x)) for name, x in samples().items()
        },
        "direction_rows_se": {
            name: [float.hex(v) for v in rows.se.tolist()] for name, rows in chunk_rows().items()
        },
    }


def test_scales_are_the_locked_bits():
    want = json.loads(GOLDEN.read_text())
    got = render()
    assert got["exact_bootstrap_median_sd"] == want["exact_bootstrap_median_sd"]
    for name, column in want["direction_rows_se"].items():
        assert got["direction_rows_se"][name] == column, name


def test_corpus_covers_what_it_locks():
    for rows in chunk_rows().values():
        live = rows.size[~np.isnan(rows.se)]
        assert np.unique(live[live % 2 == 0]).size > 100
        assert np.unique(live[live % 2 == 1]).size > 100
    names = set(json.loads(GOLDEN.read_text())["exact_bootstrap_median_sd"])
    assert names == set(samples())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(render(), indent=1, sort_keys=True) + "\n")
