"""Bi-directional causal-effect testing from two-sample GWAS summary statistics.

The package tests, for a pair of traits, whether either causally affects the
other, using possibly pleiotropic SNPs as candidate instruments. Each
direction is tested on a focused SNP set (small normalized outcome
association, real exposure association) with inference that accounts for the
selection through truncated-normal moments. Conventional comparators
(overall IVW, MR-Median, MR-Egger), exact identification diagnostics for
known ground truths, and a reproducible Monte-Carlo harness round out the
toolkit. See the ``bidirmr`` command-line interface for file-based use.

The top level exports what a user of ``test`` or ``simulate`` calls. The
building blocks stay in their submodules: the truncated-normal primitives in
:mod:`bidirmr.truncnorm`, the single-replication draws in
:mod:`bidirmr.simulation`, and the comparator wrappers in
:mod:`bidirmr.benchmarks` (a comparator is :func:`test_direction` with its
:class:`Method`).
"""

from .errors import (
    BidirMrError,
    DegeneracyError,
    DegenerateTruncationError,
    DuplicateVariantError,
    EmptyFocusedSetError,
    EmptyIntersectionError,
    EmptyRelevantSetError,
    GwasParseError,
    InputError,
    NonPositiveSEError,
    RankDeficientError,
    ZeroDenominatorError,
)
from .focusing import (
    Direction,
    FocusConfig,
    JointTestReport,
    Method,
    Panel,
    PowerForecast,
    TestReport,
    check_separation,
    power_forecast,
    test_direction,
    test_joint_null,
)
from .gwasio import (
    GwasFile,
    HarmonizeMode,
    ReportFormat,
    emit_report,
    harmonize,
    load_gwas,
)
from .model import (
    DiagnosticsReport,
    DirectionDiagnostics,
    IvClass,
    ReducedForm,
    TruthConfig,
    diagnose_identification,
    direct_effects,
    iv_class_masks,
    reduced_form,
    reverse_equivalent_truth,
)
from .simulation import (
    ScenarioConfig,
    ScenarioReport,
    SeedEffects,
    load_seed_effects,
    run_scenario,
    synthetic_seed,
)

__version__ = "0.1.0"
