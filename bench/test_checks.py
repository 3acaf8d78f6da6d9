"""Self-test of the benchmark's correctness checks.

Each check must accept the program's real output and reject the same output
with one estimate, set size, ``n_snps`` or rejection rate perturbed, so no
check passes vacuously. Run from the repository root::

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

import checks
import gen_gwas

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bidirmr.cli import main  # noqa: E402


def _cli(argv: list[str]) -> None:
    assert main(argv) == 0, argv


@pytest.fixture(scope="module")
def gwas(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("gwas"))
    planted = gen_gwas.generate(11, 20_000)
    exposure, outcome = gen_gwas.write_files(planted, tmp)
    base = ["test", "--exposure", exposure, "--outcome", outcome, "--mode", "allele", "--seed", "3"]
    paths = {k: os.path.join(tmp, k) for k in ("a.json", "snps.tsv", "density.tsv", "b.json", "c.json")}
    _cli(base + ["--estimator", "ivw", "--direction", "both", "--emit-snps", paths["snps.tsv"],
                 "--emit-density", paths["density.tsv"], "--out", paths["a.json"]])
    _cli(base + ["--estimator", "median", "--direction", "joint", "--out", paths["b.json"]])
    _cli(base + ["--estimator", "mr-egger", "--direction", "both", "--out", paths["c.json"]])
    return checks.expected_panel(planted), paths


def _run_gwas(kind, document, exp, paths, snps=None):
    if kind == "a":
        checks.check_ivw_tables(document, snps or paths["snps.tsv"], paths["density.tsv"], exp)
    elif kind == "b":
        checks.check_median_joint(document, exp)
    else:
        checks.check_egger(document, exp)


@pytest.mark.parametrize("kind", ["a", "b", "c"])
def test_gwas_checks_accept_program_output(gwas, kind):
    exp, paths = gwas
    _run_gwas(kind, checks.load_json(paths[f"{kind}.json"]), exp, paths)


def _bump_estimate(doc):
    doc["results"][0]["estimate"] *= 1.0 + 1e-6


def _bump_n_selected(doc):
    doc["results"][1]["n_selected"] += 1


def _drop_selected_id(doc):
    doc["results"][0]["selected_ids"].pop()


def _bump_n_snps(doc):
    doc["n_snps"] += 1


def _bump_p_value(doc):
    doc["results"][1]["p_value"] *= 1.0 + 1e-4


def _flip_joint(doc):
    doc["results"][-1]["reject"] = not doc["results"][-1]["reject"]


PERTURBATIONS = [
    ("a", _bump_estimate), ("a", _bump_n_selected), ("a", _drop_selected_id), ("a", _bump_n_snps),
    ("a", _bump_p_value),
    ("b", _bump_estimate), ("b", _bump_n_selected), ("b", _drop_selected_id), ("b", _bump_n_snps),
    ("b", _bump_p_value), ("b", _flip_joint),
    ("c", _bump_estimate), ("c", _bump_n_selected), ("c", _drop_selected_id), ("c", _bump_n_snps),
    ("c", _bump_p_value),
]


@pytest.mark.parametrize("kind,perturb", PERTURBATIONS,
                         ids=[f"{k}-{f.__name__.strip('_')}" for k, f in PERTURBATIONS])
def test_gwas_checks_reject_perturbed_report(gwas, kind, perturb):
    exp, paths = gwas
    document = checks.load_json(paths[f"{kind}.json"])
    perturb(document)
    with pytest.raises(checks.CheckFailed):
        _run_gwas(kind, document, exp, paths)


def test_snp_table_check_rejects_a_wrong_sign(gwas, tmp_path):
    exp, paths = gwas
    with open(paths["snps.tsv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[1].split("\t")
    cells[3] = cells[3][1:] if cells[3].startswith("-") else "-" + cells[3]
    lines[1] = "\t".join(cells)
    bad = tmp_path / "snps.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        _run_gwas("a", checks.load_json(paths["a.json"]), exp, paths, snps=str(bad))


SIM = ["simulate", "--synthetic", "394", "--kappa", "1", "--tau-f", "1.5",
       "--enforce-separation", "2.0", "--seed", "5"]


@pytest.fixture(scope="module")
def ivw_grid(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sim") / "grid.json")
    _cli(SIM + ["--grid", "0:0,0.3:0,0:0.3", "--methods", "focused_ivw,overall_ivw,mr_egger",
                "--reps", "1000", "--out", out])
    return checks.load_json(out)


@pytest.fixture(scope="module")
def median(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sim") / "median.json")
    _cli(SIM + ["--beta-dy", "0.3", "--methods", "focused_median,mr_median", "--reps", "40",
                "--out", out])
    return checks.load_json(out)


def _row(document, cell, method, direction):
    for row in document["results"]:
        if (row["beta_dy"], row["beta_yd"], row["method"], row["direction"]) == (
            *cell, method, direction
        ):
            return row
    raise KeyError((cell, method, direction))


def test_sim_checks_accept_program_output(ivw_grid, median):
    checks.check_sim_ivw_grid(ivw_grid)
    checks.check_sim_median(median)


def _set(cell, method, direction, key, value):
    def perturb(doc):
        _row(doc, cell, method, direction)[key] = value
    perturb.__name__ = f"{key}-{method}-{direction}-{cell[0]}:{cell[1]}"
    return perturb


def _shift_rate(cell, method, direction, by):
    def perturb(doc):
        _row(doc, cell, method, direction)["rejection_rate"] += by
    perturb.__name__ = f"shift-{method}-{direction}-{cell[0]}:{cell[1]}"
    return perturb


def _bump_rho(doc):
    doc["cells"][2]["mean_rho"][0] += 1e-6


GRID_PERTURBATIONS = [
    _set((0.0, 0.0), "focused_ivw", "dy", "rejection_rate", 0.2),
    _set((0.0, 0.0), "focused_ivw", "yd", "rejection_rate", 0.0),
    _set((0.3, 0.0), "focused_ivw", "dy", "rejection_rate", 0.8),
    _set((0.0, 0.3), "focused_ivw", "yd", "rejection_rate", 0.8),
    _shift_rate((0.3, 0.0), "mr_egger", "yd", 1e-4),
    _set((0.0, 0.0), "focused_ivw", "yd", "valid_iv_proportion", 0.0),
    _set((0.0, 0.3), "overall_ivw", "dy", "error_count", 1),
    _bump_rho,
]


@pytest.mark.parametrize("perturb", GRID_PERTURBATIONS, ids=lambda f: f.__name__)
def test_ivw_grid_check_rejects_perturbed_report(ivw_grid, perturb):
    document = copy.deepcopy(ivw_grid)
    perturb(document)
    with pytest.raises(checks.CheckFailed):
        checks.check_sim_ivw_grid(document)


MEDIAN_PERTURBATIONS = [
    _set((0.3, 0.0), "focused_median", "dy", "rejection_rate", 0.85),
    _shift_rate((0.3, 0.0), "mr_median", "yd", 1e-4),
    _set((0.3, 0.0), "mr_median", "dy", "error_count", 2),
]


@pytest.mark.parametrize("perturb", MEDIAN_PERTURBATIONS, ids=lambda f: f.__name__)
def test_median_check_rejects_perturbed_report(median, perturb):
    document = copy.deepcopy(median)
    perturb(document)
    with pytest.raises(checks.CheckFailed):
        checks.check_sim_median(document)

