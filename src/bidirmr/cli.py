"""Command-line interface.

Subcommands: ``test`` (directional/joint causal tests on two summary files),
``simulate`` (Monte-Carlo scenarios), ``diagnose`` (identification checks on
a ground-truth configuration), and ``truncnorm`` (truncated-normal moments,
a debugging aid). Exit codes: 0 success, 2 input error (including a request
too large for memory), 3 numerical degeneracy.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import secrets
import sys

import numpy as np

from .errors import DegeneracyError, InputError
from .focusing import (
    Direction,
    FocusConfig,
    Method,
    TestReport,
    _panel_roles,
    focused_mask,
    relevant_mask,
    test_direction,
    test_joint_null,
)
from .gwasio import (
    SCHEMA_VERSION,
    ColumnTable,
    HarmonizeMode,
    MaskedColumn,
    ReportFormat,
    emit_report,
    harmonize,
    load_float_columns,
    load_gwas,
    parse_col_map,
    write_tsv_rows,
)
from .model import TruthConfig, _causal_pair, diagnose_identification
from .simulation import ScenarioConfig, load_seed_effects, run_scenario, synthetic_seed
from .truncnorm import TruncSpec, truncnorm_mean, truncnorm_var

# The method names of ``test --estimator`` and ``simulate --methods``: every ``Method`` value,
# and ``ivw`` and ``median`` for the focused methods; ``-`` may stand for ``_``.
_METHODS = {
    **{m.value: m for m in Method},
    "ivw": Method.FOCUSED_IVW,
    "median": Method.FOCUSED_MEDIAN,
}
_METHOD_NAMES = ", ".join(_METHODS) + " ('-' may stand for '_')"


def _add_common_output_args(sub):
    sub.add_argument("--out", default=None, help="output path (stdout if absent)")
    sub.add_argument("--format", default="json", choices=["json", "tsv"], help="output format")


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads a word starting like a negative number as a value, not
    an option: ``--grid -0.3:0``, ``--beta-dy -inf``, ``--a -1e-3``. argparse's own pattern
    reads only plain decimals (``-1``, ``-.5``) so; no option of this CLI starts like one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bidirmr",
        description="Bi-directional causal-effect tests from two-sample GWAS summary statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test causal directions between two traits")
    p_test.add_argument("--exposure", required=True, help="TSV of exposure-trait summary statistics")
    p_test.add_argument("--outcome", required=True, help="TSV of outcome-trait summary statistics")
    p_test.add_argument("--tau-f", type=float, default=1.5, help="outcome-association filter threshold")
    p_test.add_argument("--tau-s", default="auto", help="relevance threshold, or 'auto' for quantile(1-1/p)")
    p_test.add_argument("--alpha", type=float, default=0.05, help="significance level")
    p_test.add_argument("--estimator", default="ivw", help=f"the method to run, one of {_METHOD_NAMES}")
    p_test.add_argument("--direction", default="both", choices=["dy", "yd", "both", "joint"])
    p_test.add_argument("--col-map", default=None, help="column aliases, e.g. 'b=beta,rsid=id'")
    p_test.add_argument("--mode", default="id", choices=["id", "allele"], help="harmonization mode")
    p_test.add_argument("--emit-snps", default=None, help="write per-SNP membership/ratio TSV here")
    p_test.add_argument("--emit-density", default=None, help="write per-SNP IVW contribution TSV here")
    p_test.add_argument("--seed", type=int, default=None, help="recorded as given; test draws nothing")
    _add_common_output_args(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte-Carlo scenario")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", type=int, default=None, metavar="P", help="synthetic seed with P SNPs")
    src.add_argument("--seed-file", default=None, help="TSV with alpha_d, alpha_y, se_d, se_y columns")
    p_sim.add_argument("--kappa", type=float, default=1.0, help="activation-probability exponent")
    p_sim.add_argument("--beta-dy", type=float, default=None, help="causal effect (0 if absent)")
    p_sim.add_argument("--beta-yd", type=float, default=None, help="causal effect (0 if absent)")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument(
        "--methods", default="focused_ivw", help=f"the methods to run, a comma list of {_METHOD_NAMES}"
    )
    p_sim.add_argument("--tau-f", type=float, default=1.5)
    p_sim.add_argument("--tau-s", default="auto")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument(
        "--enforce-separation",
        type=float,
        default=None,
        metavar="C1",
        help="amplify active effects to c1*tau_f*sqrt(log p) noise units",
    )
    p_sim.add_argument("--grid", default=None, help="comma list of BETA_DY:BETA_YD pairs")
    p_sim.add_argument("--seed", type=int, default=None, help="RNG seed; generated and printed if absent")
    _add_common_output_args(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="identification diagnostics for a ground truth")
    p_diag.add_argument("--input", required=True, help="truth configuration (.json, or TSV columns pi_d pi_y se_d se_y)")
    p_diag.add_argument("--beta-dy", type=float, default=None, help="causal effect for TSV input")
    p_diag.add_argument("--beta-yd", type=float, default=None, help="causal effect for TSV input")
    p_diag.add_argument("--zero-tol", type=float, default=1e-12)
    _add_common_output_args(p_diag)
    p_diag.set_defaults(func=_cmd_diagnose)

    p_tn = sub.add_parser("truncnorm", help="truncated-normal mean and variance")
    p_tn.add_argument("--a", type=float, required=True, help="lower truncation bound")
    p_tn.add_argument("--b", type=float, required=True, help="upper truncation bound")
    p_tn.add_argument("--mu", type=float, default=0.0, help="location of the untruncated normal")
    _add_common_output_args(p_tn)
    p_tn.set_defaults(func=_cmd_truncnorm)

    return parser


def _given_seed(args) -> int | None:
    if args.seed is not None and args.seed < 0:
        raise InputError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _focus_config(tau_f: float, tau_s: str, alpha: float) -> FocusConfig:
    if tau_s == "auto":
        return FocusConfig(tau_f=tau_f, alpha=alpha)
    try:
        tau_s_value = float(tau_s)
    except ValueError:
        raise InputError(f"--tau-s must be 'auto' or a number, got {tau_s!r}") from None
    return FocusConfig(tau_f=tau_f, tau_s=tau_s_value, alpha=alpha)


def _emit(document, args) -> None:
    text = emit_report(document, ReportFormat(args.format), args.out)
    if args.out is None:
        sys.stdout.write(text)


def _result_row(report: TestReport, panel) -> dict:
    return {
        "test": "directional",
        "direction": report.direction,
        "estimator": report.method,
        "alpha": report.alpha,
        "tau_f": report.tau_f,
        "tau_s": report.tau_s,
        "estimate": report.estimate,
        "se": report.null_sd,
        "z_score": report.z_score,
        "p_value": report.p_value,
        "reject": report.reject,
        "empty_set_reject": report.empty_set_reject,
        "n_selected": report.focused_size,
        "weight_sum": report.weight_sum,
        "max_weight_share": report.max_weight_share,
        "n_dropped_zero_denom": report.n_dropped_zero_denom,
        "bootstrap_inference": report.bootstrap_inference,
        "intercept": report.intercept,
        "intercept_se": report.intercept_se,
        "selected_ids": list(panel.ids_at(report.selected)),
    }


def _ratio_column(numerator, denominator) -> MaskedColumn:
    zero = denominator == 0.0
    with np.errstate(over="ignore"):  # an overflowing ratio is written as inf
        ratio = np.divide(numerator, denominator, out=np.zeros_like(numerator), where=~zero)
    return MaskedColumn(ratio, zero)


def _emit_snp_table(path, panel, cfg):
    tau_s = cfg.resolve_tau_s(len(panel))
    f_dy = focused_mask(panel, Direction.D_TO_Y, cfg)
    f_yd = focused_mask(panel, Direction.Y_TO_D, cfg)
    r_dy = relevant_mask(panel, Direction.D_TO_Y, tau_s)
    r_yd = relevant_mask(panel, Direction.Y_TO_D, tau_s)
    columns = [
        "id", "beta_d", "se_d", "beta_y", "se_y",
        "relevant_dy", "relevant_yd", "focused_dy", "focused_yd", "ratio_dy", "ratio_yd",
    ]
    table = ColumnTable([
        panel.ids, panel.beta_d, panel.se_d, panel.beta_y, panel.se_y,
        r_dy, r_yd, f_dy, f_yd,
        _ratio_column(panel.beta_y, panel.beta_d), _ratio_column(panel.beta_d, panel.beta_y),
    ])
    write_tsv_rows(path, columns, table)


def _emit_density_table(path, panel, reports):
    # Per-SNP IVW pieces for density plots of the normalized contributions;
    # a direction whose weights sum to zero gets empty shares. An overflow
    # is written as inf, and a zero share of an infinite ratio as nan.
    columns = ["direction", "id", "ratio", "weight", "contribution"]
    names, ids, ratios, shares, missing = [], [], [np.empty(0)], [np.empty(0)], [np.empty(0, bool)]
    with np.errstate(over="ignore", invalid="ignore"):
        for report in reports:
            mask = report.selected
            eb, _, ob, os_ = (column[mask] for column in _panel_roles(panel, report.direction))
            weights = (eb / os_) ** 2
            total = sum(weights.tolist())  # summed left to right, not pairwise
            names += [report.direction.value] * eb.size
            ids += panel.ids_at(mask)
            ratios.append(ob / eb)
            shares.append(weights / total if total > 0 else weights)
            missing.append(np.full(eb.size, not total > 0))
        ratio, share, missing = (np.concatenate(parts) for parts in (ratios, shares, missing))
        table = ColumnTable([
            names, ids, ratio, MaskedColumn(share, missing), MaskedColumn(share * ratio, missing),
        ])
    write_tsv_rows(path, columns, table)


def _cmd_test(args) -> int:
    cfg = _focus_config(args.tau_f, args.tau_s, args.alpha)
    [method] = _parse_methods(args.estimator, "--estimator", one=True)
    seed = _given_seed(args)
    col_map = parse_col_map(args.col_map) if args.col_map else None
    if args.emit_density is not None and method not in (Method.FOCUSED_IVW, Method.OVERALL_IVW):
        raise InputError("--emit-density applies to the focused_ivw and overall_ivw methods only")
    # the loaded files are released once harmonized: only the panel is needed
    panel = harmonize(
        load_gwas(args.exposure, col_map),
        load_gwas(args.outcome, col_map),
        HarmonizeMode(args.mode),
    )

    verdict = None
    if args.direction == "joint":
        joint = test_joint_null(panel, cfg, method)
        reports = [joint.d_to_y, joint.y_to_d]
        verdict = {
            "test": "joint", "direction": "joint", "estimator": method, "alpha": joint.alpha,
            "reject": joint.reject, "empty_set_reject": False, "n_dropped_zero_denom": 0,
            "bootstrap_inference": False, "selected_ids": [],
        }
    else:
        directions = {
            "dy": [Direction.D_TO_Y],
            "yd": [Direction.Y_TO_D],
            "both": [Direction.D_TO_Y, Direction.Y_TO_D],
        }[args.direction]
        reports = [test_direction(panel, d, cfg, method) for d in directions]
    rows = [_result_row(report, panel) for report in reports]
    if verdict is not None:
        # the joint verdict has no estimate of its own: its other fields are None
        rows.append({**dict.fromkeys(rows[0]), **verdict})

    if args.emit_density is not None:
        _emit_density_table(args.emit_density, panel, [r for r in reports if r.selected.any()])
    if args.emit_snps is not None:
        _emit_snp_table(args.emit_snps, panel, cfg)

    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "test",
        "seed": seed,
        "n_snps": len(panel),
        "params": {
            "tau_f": cfg.tau_f,
            "tau_s": cfg.resolve_tau_s(len(panel)),
            "alpha": cfg.alpha,
            "estimator": args.estimator,
            "direction": args.direction,
            "harmonize_mode": HarmonizeMode(args.mode),
        },
        "results": rows,
    }
    _emit(document, args)
    return 0


def _parse_methods(spec: str, flag: str, one: bool = False) -> tuple[Method, ...]:
    # the methods a comma list names; ScenarioConfig refuses one named twice
    names = [item.strip().replace("-", "_") for item in spec.split(",") if item.strip()]
    if not names or (one and len(names) > 1) or not all(name in _METHODS for name in names):
        what = "one method" if one else "a comma list of methods"
        raise InputError(f"{flag} must be {what} of {_METHOD_NAMES}, got {spec!r}")
    return tuple(_METHODS[name] for name in names)


def _parse_grid(spec: str) -> list[tuple[float, float]]:
    # the BETA_DY:BETA_YD entries as causal pairs; an error names the entry as typed
    pairs = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            beta_dy, beta_yd = map(float, item.split(":"))
        except ValueError:  # not two parts, or not numbers
            raise InputError(f"--grid entry {item!r} is not two numbers BETA_DY:BETA_YD") from None
        try:
            pairs.append(_causal_pair(beta_dy, beta_yd, ("BETA_DY", "BETA_YD")))
        except InputError as exc:
            raise InputError(f"--grid entry {item!r}: {exc}") from None
    if not pairs:
        raise InputError(f"--grid must list at least one BETA_DY:BETA_YD pair, got {spec!r}")
    return pairs


def _scenario_rows(report, beta_dy, beta_yd):
    rows = []
    for method in report.methods:
        for direction in ("dy", "yd"):
            rows.append(
                {
                    "beta_dy": beta_dy,
                    "beta_yd": beta_yd,
                    "method": method,
                    "direction": direction,
                    "rejection_rate": report.rejection_rates[method][direction],
                    "valid_iv_proportion": report.valid_iv_proportions[method][direction],
                    "empty_set_rate": report.empty_set_rates[method][direction],
                    "error_count": report.error_counts[method][direction],
                }
            )
    return rows


def _cmd_simulate(args) -> int:
    if args.grid is not None and (args.beta_dy is not None or args.beta_yd is not None):
        raise InputError("--beta-dy and --beta-yd do not apply with --grid, whose pairs set both")
    if args.grid is None:
        beta_dy = 0.0 if args.beta_dy is None else args.beta_dy
        beta_yd = 0.0 if args.beta_yd is None else args.beta_yd
        cells = [_causal_pair(beta_dy, beta_yd, ("--beta-dy", "--beta-yd"))]
    else:
        cells = _parse_grid(args.grid)
    seed = _given_seed(args)
    if seed is None:
        seed = secrets.randbits(32)
        print(f"seed: {seed}", file=sys.stderr)
    if args.synthetic is not None:
        seed_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
        effects = synthetic_seed(args.synthetic, seed_rng)
    else:
        effects = load_seed_effects(args.seed_file)
    cfg = _focus_config(args.tau_f, args.tau_s, args.alpha)
    scenario = ScenarioConfig(
        kappa=args.kappa,
        cells=cells,
        n_reps=args.reps,
        focus=cfg,
        methods=_parse_methods(args.methods, "--methods"),
        rng_seed=seed,
        enforce_separation_c1=args.enforce_separation,
    )
    params = {
        "p": effects.p,
        "kappa": args.kappa,
        "n_reps": args.reps,
        "tau_f": cfg.tau_f,
        "tau_s": cfg.resolve_tau_s(effects.p),
        "alpha": cfg.alpha,
        "methods": [m.value for m in scenario.methods],
        "enforce_separation_c1": args.enforce_separation,
    }
    # a --beta-dy/--beta-yd run is a grid of one cell
    summaries, rows = [], []
    for (beta_dy, beta_yd), report in zip(scenario.cells, run_scenario(effects, scenario)):
        summaries.append(
            {
                "beta_dy": beta_dy,
                "beta_yd": beta_yd,
                "mean_rho": list(report.mean_rho),
                "mean_corr_pi": report.mean_corr_pi,
            }
        )
        rows.extend(_scenario_rows(report, beta_dy, beta_yd))
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "simulate",
        "seed": seed,
        "params": params,
        "cells": summaries,
        "results": rows,
    }
    _emit(document, args)
    return 0


_TRUTH_VECTORS = ("pi_d", "pi_y", "se_d", "se_y")


def _is_json_number(value) -> bool:
    # json gives int or float for a number; bool is an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_truth(args) -> TruthConfig:
    path, payload = args.input, {}
    if path.endswith(".json"):
        with open(path, encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except (json.JSONDecodeError, RecursionError) as exc:
                # the decoder recurses once per nested array or object
                raise InputError(f"{path}: invalid JSON ({exc})") from None
            except UnicodeDecodeError as exc:
                raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None
        if not isinstance(payload, dict):
            raise InputError(f"{path}: expected a JSON object")
        missing = [k for k in _TRUTH_VECTORS if k not in payload]
        if missing:
            raise InputError(f"{path}: missing keys {missing}")
        for key in _TRUTH_VECTORS:
            if not (isinstance(payload[key], list) and all(map(_is_json_number, payload[key]))):
                raise InputError(f"{path}: {key} must be a list of JSON numbers")
        for key in ("beta_dy", "beta_yd"):
            if key in payload and not _is_json_number(payload[key]):
                raise InputError(f"{path}: {key} must be a JSON number")
        columns = {key: payload[key] for key in _TRUTH_VECTORS}
    else:
        columns = load_float_columns(path, _TRUTH_VECTORS)
    beta_dy = args.beta_dy if args.beta_dy is not None else payload.get("beta_dy", 0.0)
    beta_yd = args.beta_yd if args.beta_yd is not None else payload.get("beta_yd", 0.0)
    return TruthConfig(**columns, beta_dy=beta_dy, beta_yd=beta_yd)


def _direction_row(direction: str, diag) -> dict:
    return {
        "direction": direction,
        "n_relevant": diag.n_relevant,
        "valid_rule": diag.valid_rule,
        "majority_rule": diag.majority_rule,
        "plurality_rule": diag.plurality_rule,
        "plurality_defined": diag.plurality_defined,
        "inside": diag.inside,
        "inside_defined": diag.inside_defined,
        "inside_critical_beta": diag.inside_critical_beta,
    }


def _cmd_diagnose(args) -> int:
    truth = _load_truth(args)
    report = diagnose_identification(truth, zero_tol=args.zero_tol)
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "diagnose",
        "p": truth.p,
        "beta_dy": truth.beta_dy,
        "beta_yd": truth.beta_yd,
        "counts": {
            "null": report.n_null,
            "valid_dy": report.n_valid_dy,
            "valid_yd": report.n_valid_yd,
            "pleiotropic": report.n_pleiotropic,
        },
        "results": [
            _direction_row("dy", report.d_to_y),
            _direction_row("yd", report.y_to_d),
        ],
    }
    _emit(document, args)
    return 0


def _cmd_truncnorm(args) -> int:
    spec = TruncSpec(lower=args.a, upper=args.b, mu=args.mu)
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": "truncnorm",
        "results": [
            {
                "lower": args.a,
                "upper": args.b,
                "mu": args.mu,
                "mean": truncnorm_mean(spec),
                "variance": truncnorm_var(spec),
            }
        ],
    }
    _emit(document, args)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
