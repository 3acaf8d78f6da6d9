"""Correctness checks on the program's outputs, computed apart from the program.

``gwas-test-200k`` outputs are recomputed with NumPy/SciPy from the
generator's own records (``gen_gwas.Planted``): the harmonized panel, the
focused and relevance-screened sets, the IVW estimate and its
truncated-normal null SD, the Egger fit from the normal equations, the
median estimate and the p-values. Reports carry 12 significant digits, so
reals are compared to 1e-9 relative. The median's bootstrap SD is checked
by its properties only (positive, and consistent with the p-value), never
by replaying the program's random draws.

``sim-*`` outputs are checked against properties the method must have:
size within a binomial band around alpha, power, the focused set's valid
instrument share, shared random numbers across grid cells, and no errors.

Every check raises :class:`CheckFailed` naming what disagreed.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

REL_TOL = 1e-9
#: Relative rounding of a value printed with 12 significant digits.
ROUND_REL = 5e-13


class CheckFailed(AssertionError):
    """An output disagrees with its independent recomputation or property."""


def _close(got, want, what: str, rel: float = REL_TOL, scale: float = 0.0) -> None:
    if got is None or not math.isfinite(got):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")
    if abs(got - want) > rel * max(abs(want), scale):
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rel tol {rel:g})")


def _equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def _round12(value: float) -> float:
    return float(f"{value:.12g}")


def _two_sided_p(z: float) -> float:
    return float(2.0 * stats.norm.sf(abs(z)))


# ---------------------------------------------------------------- gwas-test


@dataclass(frozen=True, eq=False)
class Direction:
    """Expected sets and arrays for one causal direction of the harmonized panel."""

    name: str
    exp_beta: np.ndarray
    exp_se: np.ndarray
    out_beta: np.ndarray
    out_se: np.ndarray
    relevant: np.ndarray
    focused: np.ndarray


@dataclass(frozen=True, eq=False)
class ExpectedPanel:
    ids: np.ndarray
    beta_d: np.ndarray
    se_d: np.ndarray
    beta_y: np.ndarray
    se_y: np.ndarray
    tau_s: float
    tau_f: float
    alpha: float
    dy: Direction
    yd: Direction

    def direction(self, name: str) -> Direction:
        return {"dy": self.dy, "yd": self.yd}[name]


def expected_panel(planted, tau_f: float = 1.5, alpha: float = 0.05) -> ExpectedPanel:
    """Recompute the harmonized panel and its selection sets from the planted truth."""
    ids, beta_d, se_d, beta_y, se_y = planted.harmonized()
    p = ids.size
    tau_s = float(stats.norm.ppf(1.0 - 1.0 / p))

    def direction(name, eb, es, ob, os_):
        relevant = np.abs(eb) >= es * tau_s
        focused = relevant & (np.abs(ob) <= os_ * tau_f)
        return Direction(name, eb, es, ob, os_, relevant, focused)

    return ExpectedPanel(
        ids=ids,
        beta_d=beta_d,
        se_d=se_d,
        beta_y=beta_y,
        se_y=se_y,
        tau_s=tau_s,
        tau_f=tau_f,
        alpha=alpha,
        dy=direction("dy", beta_d, se_d, beta_y, se_y),
        yd=direction("yd", beta_y, se_y, beta_d, se_d),
    )


def _check_set(got_ids, want: np.ndarray, ids: np.ndarray, what: str) -> np.ndarray:
    """``got_ids`` must list exactly the ``want`` members, in panel order."""
    want_ids = ids[want].tolist()
    if list(got_ids) != want_ids:
        raise CheckFailed(f"{what}: {len(got_ids)} ids differ from the {len(want_ids)} expected")
    return want


def _check_common(document: dict, exp: ExpectedPanel, estimator: str, direction: str) -> list:
    _equal(document.get("command"), "test", "command")
    _equal(document.get("n_snps"), int(exp.ids.size), "n_snps")
    params = document["params"]
    _equal(params["estimator"], estimator, "params.estimator")
    _equal(params["direction"], direction, "params.direction")
    _close(params["tau_s"], exp.tau_s, "params.tau_s")
    return document["results"]


def _row(rows: list, direction: str) -> dict:
    found = [r for r in rows if r["direction"] == direction]
    if len(found) != 1:
        raise CheckFailed(f"expected one result row for direction {direction!r}, got {len(found)}")
    return found[0]


def _ivw(d: Direction, mask: np.ndarray, tau_f: float):
    eb, ob, os_ = d.exp_beta[mask], d.out_beta[mask], d.out_se[mask]
    weights = (eb / os_) ** 2
    weight_sum = float(weights.sum())
    estimate = float(np.sum(weights * (ob / eb)) / weight_sum)
    var0 = float(stats.truncnorm(-tau_f, tau_f).var())
    null_sd = math.sqrt(var0 / weight_sum)
    return estimate, null_sd, weight_sum, weights


def check_ivw_tables(document: dict, snps_path: str, density_path: str, exp: ExpectedPanel):
    """Invocation (a): focused IVW in both directions plus both per-SNP tables."""
    rows = _check_common(document, exp, "ivw", "both")
    _equal(len(rows), 2, "result rows")
    shares = {}
    for name in ("dy", "yd"):
        d = exp.direction(name)
        row = _row(rows, name)
        what = f"ivw.{name}"
        _equal(row["estimator"], "focused_ivw", f"{what}.estimator")
        mask = _check_set(row["selected_ids"], d.focused, exp.ids, f"{what}.selected_ids")
        _equal(row["n_selected"], int(mask.sum()), f"{what}.n_selected")
        estimate, null_sd, weight_sum, weights = _ivw(d, mask, exp.tau_f)
        _close(row["estimate"], estimate, f"{what}.estimate")
        _close(row["se"], null_sd, f"{what}.se")
        _close(row["weight_sum"], weight_sum, f"{what}.weight_sum")
        _close(row["max_weight_share"], float(weights.max()) / weight_sum, f"{what}.max_weight_share")
        z = estimate / null_sd
        _close(row["z_score"], z, f"{what}.z_score")
        p_value = _two_sided_p(z)
        _close(row["p_value"], p_value, f"{what}.p_value", scale=1e-300)
        _equal(row["reject"], p_value <= exp.alpha, f"{what}.reject")
        _equal(row["empty_set_reject"], False, f"{what}.empty_set_reject")
        shares[name] = (exp.ids[mask].tolist(), weights / weight_sum, estimate, d, mask)
    check_snp_table(snps_path, exp)
    check_density_table(density_path, shares)


def _read_tsv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader)
        return header, list(reader)


def _floats(column: list[str]) -> np.ndarray:
    return np.array([float(v) if v else math.nan for v in column], dtype=float)


def _close_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    bad = ~(np.abs(got - want) <= REL_TOL * np.abs(want))
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise CheckFailed(f"{what}: {int(bad.sum())} values differ, first at row {j}: "
                          f"got {got[j]!r}, want {want[j]!r}")


def check_snp_table(path: str, exp: ExpectedPanel) -> None:
    """``--emit-snps``: panel order, harmonized values and signs, set membership, ratios."""
    header, rows = _read_tsv(path)
    _equal(header, ["id", "beta_d", "se_d", "beta_y", "se_y", "relevant_dy", "relevant_yd",
                    "focused_dy", "focused_yd", "ratio_dy", "ratio_yd"], "snp table header")
    _equal(len(rows), int(exp.ids.size), "snp table rows")
    cols = list(zip(*rows))
    if list(cols[0]) != exp.ids.tolist():
        raise CheckFailed("snp table: ids are not the harmonized panel in exposure-file order")
    beta_y = _floats(cols[3])
    wrong_sign = np.sign(beta_y) != np.sign(exp.beta_y)
    if wrong_sign.any():
        raise CheckFailed(f"snp table: {int(wrong_sign.sum())} outcome betas have the wrong sign")
    for k, (name, want) in enumerate(
        (("beta_d", exp.beta_d), ("se_d", exp.se_d), ("beta_y", exp.beta_y), ("se_y", exp.se_y)),
        start=1,
    ):
        _close_array(_floats(cols[k]), want, f"snp table {name}")
    for k, name, d, kind in ((5, "relevant_dy", exp.dy, "relevant"),
                             (6, "relevant_yd", exp.yd, "relevant"),
                             (7, "focused_dy", exp.dy, "focused"),
                             (8, "focused_yd", exp.yd, "focused")):
        got = np.array([v == "true" for v in cols[k]])
        if np.any(got != getattr(d, kind)):
            raise CheckFailed(f"snp table {name}: membership differs from the expected set")
    _close_array(_floats(cols[9]), exp.beta_y / exp.beta_d, "snp table ratio_dy")
    _close_array(_floats(cols[10]), exp.beta_d / exp.beta_y, "snp table ratio_yd")


def check_density_table(path: str, shares: dict) -> None:
    """``--emit-density``: per-SNP weight shares whose contributions sum to the estimate."""
    header, rows = _read_tsv(path)
    _equal(header, ["direction", "id", "ratio", "weight", "contribution"], "density header")
    for name, (ids, weight_share, estimate, d, mask) in shares.items():
        mine = [r for r in rows if r[0] == name]
        _equal([r[1] for r in mine], ids, f"density {name} ids")
        cols = list(zip(*mine))
        _close_array(_floats(cols[2]), d.out_beta[mask] / d.exp_beta[mask], f"density {name} ratio")
        _close_array(_floats(cols[3]), weight_share, f"density {name} weight")
        _close(float(np.sum(_floats(cols[4]))), estimate, f"density {name} contributions sum",
               rel=1e-9, scale=1e-12)


def _check_p_from_z(row: dict, what: str) -> None:
    # The reported estimate and se carry 12 digits; that rounding moves
    # z by up to 2 * ROUND_REL relative and the p-value by about z^2 times that.
    z = row["estimate"] / row["se"]
    _close(row["z_score"], z, f"{what}.z_score", rel=REL_TOL)
    rel = REL_TOL + 4.0 * ROUND_REL * (1.0 + z * z)
    _close(row["p_value"], _two_sided_p(z), f"{what}.p_value", rel=rel, scale=1e-300)


def check_median_joint(document: dict, exp: ExpectedPanel) -> None:
    """Invocation (b): focused median in both halves at alpha/2 and their joint OR."""
    rows = _check_common(document, exp, "median", "joint")
    _equal([r["direction"] for r in rows], ["dy", "yd", "joint"], "joint row order")
    half = exp.alpha / 2.0
    for name in ("dy", "yd"):
        d = exp.direction(name)
        row = _row(rows, name)
        what = f"median.{name}"
        _equal(row["estimator"], "focused_median", f"{what}.estimator")
        _close(row["alpha"], half, f"{what}.alpha")
        mask = _check_set(row["selected_ids"], d.focused, exp.ids, f"{what}.selected_ids")
        _equal(row["n_selected"], int(mask.sum()), f"{what}.n_selected")
        median = float(np.median(d.out_beta[mask] / d.exp_beta[mask]))
        _equal(row["estimate"], _round12(median), f"{what}.estimate")
        if not (row["se"] is not None and row["se"] > 0.0):
            raise CheckFailed(f"{what}.se: bootstrap SD must be positive, got {row['se']!r}")
        _equal(row["bootstrap_inference"], True, f"{what}.bootstrap_inference")
        _check_p_from_z(row, what)
        _equal(row["reject"], row["p_value"] <= half, f"{what}.reject")
    joint = rows[2]
    _equal(joint["reject"], bool(rows[0]["reject"] or rows[1]["reject"]), "joint.reject")
    _close(joint["alpha"], exp.alpha, "joint.alpha")


def check_egger(document: dict, exp: ExpectedPanel) -> None:
    """Invocation (c): MR-Egger on the relevance-screened set, from the normal equations."""
    rows = _check_common(document, exp, "mr-egger", "both")
    _equal(len(rows), 2, "result rows")
    for name in ("dy", "yd"):
        d = exp.direction(name)
        row = _row(rows, name)
        what = f"egger.{name}"
        _equal(row["estimator"], "mr_egger", f"{what}.estimator")
        mask = _check_set(row["selected_ids"], d.relevant, exp.ids, f"{what}.selected_ids")
        _equal(row["n_selected"], int(mask.sum()), f"{what}.n_selected")
        sign = np.sign(d.exp_beta[mask])
        x = sign * d.exp_beta[mask]
        y = sign * d.out_beta[mask]
        w = 1.0 / d.out_se[mask] ** 2
        normal = np.array([[w.sum(), (w * x).sum()], [(w * x).sum(), (w * x * x).sum()]])
        rhs = np.array([(w * y).sum(), (w * x * y).sum()])
        intercept, slope = np.linalg.solve(normal, rhs)
        cov = np.linalg.inv(normal)
        se_int, se_slope = math.sqrt(cov[0, 0]), math.sqrt(cov[1, 1])
        _close(row["estimate"], float(slope), f"{what}.slope", scale=se_slope)
        _close(row["se"], se_slope, f"{what}.se")
        _close(row["intercept"], float(intercept), f"{what}.intercept", scale=se_int)
        _close(row["intercept_se"], se_int, f"{what}.intercept_se")
        z = float(slope) / se_slope
        p_value = _two_sided_p(z)
        _close(row["p_value"], p_value, f"{what}.p_value", rel=1e-9 * (1.0 + z * z), scale=1e-300)
        _equal(row["reject"], p_value <= exp.alpha, f"{what}.reject")


# ---------------------------------------------------------------- simulate


def binomial_band(alpha: float, reps: int, width: float = 5.0) -> tuple[float, float]:
    """Rejection-rate band around ``alpha``: ``width`` binomial SDs at ``reps`` replications."""
    half = width * math.sqrt(alpha * (1.0 - alpha) / reps)
    return alpha - half, alpha + half


def _sim_rows(document: dict, methods: list[str], cells: list[tuple[float, float]]) -> dict:
    _equal(document.get("command"), "simulate", "command")
    _equal(document["params"]["methods"], methods, "params.methods")
    reps = document["params"]["n_reps"]
    rows = {}
    for r in document["results"]:
        key = ((r["beta_dy"], r["beta_yd"]), r["method"], r["direction"])
        if key in rows:
            raise CheckFailed(f"duplicate result row {key}")
        rows[key] = r
    want = {(c, m, d) for c in cells for m in methods for d in ("dy", "yd")}
    _equal(set(rows), want, "result rows")
    for key, r in rows.items():
        _equal(r["error_count"], 0, f"{key}.error_count")
        rate = r["rejection_rate"]
        if rate is None or abs(rate * reps - round(rate * reps)) > 1e-6:
            raise CheckFailed(f"{key}.rejection_rate {rate!r} is not a count over {reps} reps")
    return rows


def check_sim_ivw_grid(document: dict) -> None:
    """Size, power, focusing gain and shared random numbers of the IVW grid."""
    null, fwd, rev = (0.0, 0.0), (0.3, 0.0), (0.0, 0.3)
    rows = _sim_rows(document, ["focused_ivw", "overall_ivw", "mr_egger"], [null, fwd, rev])
    params = document["params"]
    lo, hi = binomial_band(params["alpha"], params["n_reps"])
    for d in ("dy", "yd"):
        rate = rows[(null, "focused_ivw", d)]["rejection_rate"]
        if not lo <= rate <= hi:
            raise CheckFailed(f"null focused_ivw {d} rejection rate {rate} outside [{lo:.4f}, {hi:.4f}]")
        focused = rows[(null, "focused_ivw", d)]["valid_iv_proportion"]
        overall = rows[(null, "overall_ivw", d)]["valid_iv_proportion"]
        if not focused - overall >= 0.10:
            raise CheckFailed(f"null {d}: valid-IV share focused {focused} vs overall {overall}")
    for cell, d in ((fwd, "dy"), (rev, "yd")):
        rate = rows[(cell, "focused_ivw", d)]["rejection_rate"]
        if not rate >= 0.9:
            raise CheckFailed(f"cell {cell} focused_ivw {d} power {rate} < 0.9")
    cells = document["cells"]
    _equal([(c["beta_dy"], c["beta_yd"]) for c in cells], [null, fwd, rev], "cells")
    rho = cells[0]["mean_rho"]
    _close(sum(rho), 1.0, "mean_rho sum", rel=1e-9)
    for c in cells[1:]:
        _equal(c["mean_rho"], rho, f"mean_rho of cell {(c['beta_dy'], c['beta_yd'])}")


def check_sim_median(document: dict) -> None:
    """Power of the focused median at a forward effect of 0.3, and no errors."""
    cell = (document["results"][0]["beta_dy"], document["results"][0]["beta_yd"])
    _equal(cell, (0.3, 0.0), "cell")
    rows = _sim_rows(document, ["focused_median", "mr_median"], [cell])
    rate = rows[(cell, "focused_median", "dy")]["rejection_rate"]
    if not rate >= 0.9:
        raise CheckFailed(f"focused_median dy power {rate} < 0.9")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
