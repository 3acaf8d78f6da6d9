"""The package's top-level public names, listed in full.

A name added to or dropped from ``bidirmr`` by accident fails here; a
deliberate change updates the list. The names are read in a fresh
interpreter, since importing a submodule (``bidirmr.cli``) elsewhere in the
test session binds it on the package too.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

PUBLIC_NAMES = [
    "BidirMrError", "DegeneracyError", "DegenerateTruncationError", "DiagnosticsReport",
    "Direction", "DirectionDiagnostics", "DuplicateVariantError", "EmptyFocusedSetError",
    "EmptyIntersectionError", "EmptyRelevantSetError", "FocusConfig", "GwasFile",
    "GwasParseError", "HarmonizeMode", "InputError", "IvClass", "JointTestReport", "Method",
    "NonPositiveSEError", "Panel", "PowerForecast", "RankDeficientError", "ReducedForm",
    "ReportFormat", "ScenarioConfig", "ScenarioReport", "SeedEffects", "SeedProfile",
    "TestReport", "TruncSpec", "TruthConfig", "ZeroDenominatorError", "benchmarks",
    "check_separation", "diagnose_identification", "direct_effects", "emit_report",
    "enforce_separation", "errors", "focusing", "generate_truth", "gwasio", "harmonize",
    "iv_class_masks", "load_gwas", "load_seed_effects", "model", "mr_egger", "mr_median",
    "overall_ivw", "power_forecast", "reduced_form", "reverse_equivalent_truth", "run_grid",
    "run_scenario", "simulate_panel", "simulation", "std_cdf", "std_pdf", "std_quantile",
    "std_sf", "synthetic_seed", "test_direction", "test_joint_null", "truncnorm",
    "truncnorm_mean", "truncnorm_var",
]


def test_public_names_are_exactly_the_list():
    script = (
        "import sys, bidirmr; sys.stdout.write("
        "'\\n'.join(sorted(n for n in dir(bidirmr) if not n.startswith('_'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert result.stdout.split("\n") == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 67
