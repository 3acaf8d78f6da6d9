"""Byte-for-byte lock on the ``test`` command's outputs.

Every estimator x direction x harmonization mode runs on the 50-variant
fixtures, writing the report, the ``--emit-snps`` table and (for the IVW
estimators) the ``--emit-density`` table; each must equal its golden file in
``tests/golden`` byte for byte, and the harmonization log lines must match
too. ``outcome_flipped_50.tsv`` is ``outcome_50.tsv`` reversed, with swapped
(sign-flipped) alleles, palindromic and mismatched pairs, two missing
variants, lower-case alleles and a padded field, so allele mode drops and
flips variants; its reports are rendered as TSV, the plain outcome's as JSON.

Regenerate the golden files (only from a commit whose output is the
reference) with ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

from __future__ import annotations

import itertools
import logging
import sys
import tempfile
from pathlib import Path

import pytest

from bidirmr.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

OUTCOMES = {"outcome_50": "json", "outcome_flipped_50": "tsv"}
MODES = ("id", "allele")
ESTIMATORS = ("ivw", "median", "overall-ivw", "mr-median", "mr-egger")
DIRECTIONS = ("dy", "yd", "both", "joint")
CASES = list(itertools.product(OUTCOMES, MODES, ESTIMATORS, DIRECTIONS))


class _Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage().replace(str(FIXTURES), "fixtures"))


def render(outcome, mode, estimator, direction, work: Path) -> dict[str, bytes]:
    """Run one case; map golden file names to the bytes it produced."""
    stem = f"{outcome}.{mode}.{estimator}.{direction}"
    fmt = OUTCOMES[outcome]
    outputs = {
        f"{stem}.report.{fmt}": work / f"report.{fmt}",
        f"{outcome}.{mode}.snps.tsv": work / "snps.tsv",
    }
    argv = [
        "test", "--exposure", str(FIXTURES / "exposure_50.tsv"),
        "--outcome", str(FIXTURES / f"{outcome}.tsv"),
        "--mode", mode, "--estimator", estimator, "--direction", direction,
        "--seed", "11", "--format", fmt,
        "--out", str(outputs[f"{stem}.report.{fmt}"]),
        "--emit-snps", str(outputs[f"{outcome}.{mode}.snps.tsv"]),
    ]
    if estimator in ("ivw", "overall-ivw"):
        outputs[f"{stem}.density.tsv"] = work / "density.tsv"
        argv += ["--emit-density", str(outputs[f"{stem}.density.tsv"])]

    logger = logging.getLogger("bidirmr")
    handler, level = _Collect(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        code = main(argv)
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert code == 0
    produced = {name: path.read_bytes() for name, path in outputs.items()}
    produced[f"{outcome}.{mode}.log"] = ("\n".join(handler.lines) + "\n").encode()
    return produced


@pytest.mark.parametrize("outcome,mode,estimator,direction", CASES)
def test_outputs_match_golden(tmp_path, outcome, mode, estimator, direction):
    for name, data in render(outcome, mode, estimator, direction, tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


def test_every_golden_file_is_checked():
    expected = {f"{o}.{m}.{kind}" for o, m, _, _ in CASES for kind in ("snps.tsv", "log")}
    for outcome, mode, estimator, direction in CASES:
        stem = f"{outcome}.{mode}.{estimator}.{direction}"
        expected.add(f"{stem}.report.{OUTCOMES[outcome]}")
        if estimator in ("ivw", "overall-ivw"):
            expected.add(f"{stem}.density.tsv")
    assert {p.name for p in GOLDEN.iterdir()} == expected


if __name__ == "__main__":
    logging.basicConfig(handlers=[logging.NullHandler()])
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for name, data in render(*case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
    sys.exit(0)
