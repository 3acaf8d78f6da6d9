"""Bi-directional causal-effect testing from two-sample GWAS summary statistics.

The package tests, for a pair of traits, whether either causally affects the
other, using possibly pleiotropic SNPs as candidate instruments. Each
direction is tested on a focused SNP set (small normalized outcome
association, real exposure association) with inference that accounts for the
selection through truncated-normal moments. Conventional comparators
(overall IVW, MR-Median, MR-Egger), exact identification diagnostics for
known ground truths, and a reproducible Monte-Carlo harness round out the
toolkit. See the ``bidirmr`` command-line interface for file-based use.
"""

from .benchmarks import mr_egger, mr_median, overall_ivw
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
    SeedProfile,
    enforce_separation,
    generate_truth,
    load_seed_effects,
    run_grid,
    run_scenario,
    simulate_panel,
    synthetic_seed,
)
from .truncnorm import (
    TruncSpec,
    std_cdf,
    std_pdf,
    std_quantile,
    std_sf,
    truncnorm_mean,
    truncnorm_var,
)

__version__ = "0.1.0"
