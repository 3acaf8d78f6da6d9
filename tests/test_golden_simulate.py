"""Byte-for-byte lock on the ``simulate`` command's reports.

Each case runs ``bidirmr simulate`` with a fixed seed and compares the report
with its golden file in ``tests/golden_simulate`` byte for byte. The cases
cover the IVW-type grid, the two median methods, a seed file
(``fixtures/seed_effects_60.tsv``) instead of a synthetic seed, an explicit
``--tau-s`` (one large enough that focused sets come out empty and MR-Egger
raises degeneracies), and runs without ``--enforce-separation``. Every case
is also run with replications taken one and three at a time
(``simulation._CHUNK_VALUES``), which must not change a byte.

Regenerate the golden files (only from a commit whose output is the
reference) with ``PYTHONPATH=src python tests/test_golden_simulate.py``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from bidirmr import simulation
from bidirmr.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden_simulate"

_SEPARATED = ["--synthetic", "394", "--kappa", "1", "--tau-f", "1.5", "--enforce-separation", "2.0"]
_ALL_METHODS = "focused_ivw,focused_median,overall_ivw,mr_median,mr_egger"

# golden file name -> argv after "simulate" (seed and output added by render)
CASES = {
    "ivw_grid.json": _SEPARATED + [
        "--grid", "0:0,0.3:0,0:0.3", "--methods", "focused_ivw,overall_ivw,mr_egger",
        "--reps", "50", "--seed", "3"],
    "median.json": _SEPARATED + [
        "--beta-dy", "0.3", "--methods", "focused_median,mr_median", "--reps", "10", "--seed", "4"],
    "median_null.json": _SEPARATED + [
        "--beta-dy", "0", "--methods", "focused_median,mr_median", "--reps", "200", "--seed", "12"],
    "median_tiny_alpha.json": _SEPARATED + [
        "--beta-dy", "0.3", "--methods", "focused_median,mr_median", "--alpha", "1e-20",
        "--reps", "40", "--seed", "13"],
    "seed_file.json": [
        "--seed-file", str(FIXTURES / "seed_effects_60.tsv"), "--kappa", "0.7",
        "--beta-yd", "0.2", "--methods", _ALL_METHODS, "--reps", "20",
        "--seed", "5"],
    "seed_file_grid.tsv": [
        "--seed-file", str(FIXTURES / "seed_effects_60.tsv"), "--enforce-separation", "1.0",
        "--grid", "0:0,0.2:0.2", "--methods", "focused_ivw,mr_egger", "--reps", "30",
        "--format", "tsv", "--seed", "6"],
    "tau_s_explicit.json": [
        "--synthetic", "120", "--tau-s", "2.5", "--tau-f", "2.0", "--beta-dy", "0.2",
        "--methods", _ALL_METHODS, "--reps", "25", "--seed", "7"],
    "tau_s_sparse.tsv": [
        "--synthetic", "40", "--tau-s", "7", "--kappa", "2", "--methods", _ALL_METHODS,
        "--reps", "25", "--format", "tsv", "--seed", "8"],
    "no_separation.json": [
        "--synthetic", "200", "--kappa", "0.5", "--beta-yd", "0.3", "--methods", _ALL_METHODS,
        "--reps", "20", "--seed", "9"],
    "no_separation_grid.json": [
        "--synthetic", "394", "--grid", "0:0,0.3:0", "--methods", "focused_ivw,overall_ivw",
        "--alpha", "0.1", "--reps", "40", "--seed", "10"],
}


def render(name: str, work: Path) -> bytes:
    out = work / name
    assert main(["simulate", *CASES[name], "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    assert render(name, tmp_path) == (GOLDEN / name).read_bytes()


def _snps(argv: list[str]) -> int:
    if "--synthetic" in argv:
        return int(argv[argv.index("--synthetic") + 1])
    return simulation.load_seed_effects(argv[argv.index("--seed-file") + 1]).p


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_identical_in_smaller_chunks(tmp_path, monkeypatch, name, rows):
    monkeypatch.setattr(simulation, "_CHUNK_VALUES", rows * _snps(CASES[name]))
    assert render(name, tmp_path) == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_checked():
    assert {p.name for p in GOLDEN.iterdir()} == set(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / case).write_bytes(render(case, Path(tmp)))
    sys.exit(0)
