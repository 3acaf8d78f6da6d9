"""The command-line contract on generated argv and input files.

Whatever the arguments and whatever small files they name, ``bidirmr.cli.main``
ends with exit code 0 (success), 2 (bad input, including argparse's usage
errors) or 3 (numerical degeneracy), and never with a traceback. Sizes stay
small (at most 12 rows per file, 40 synthetic SNPs, 4 replications) so the
property runs in seconds.
"""

import contextlib
import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.cli import main  # noqa: E402

ALLOWED_CODES = (0, 2, 3)


def pick(draw, valid, invalid=()):
    """One of ``valid``, or about one time in ten one of ``invalid``."""
    # hypothesis favours the bounds of a range, so the invalid branch sits inside it
    if invalid and draw(st.integers(0, 9)) == 4:
        return draw(st.sampled_from(invalid))
    return draw(st.sampled_from(valid))


def option(draw, flag, valid, invalid=()):
    """``[]`` about half the time, else ``[flag=value]`` (values may start with a minus)."""
    return [f"{flag}={pick(draw, valid, invalid)}"] if draw(st.booleans()) else []


METHODS = ["focused_ivw", "focused_median", "overall_ivw", "mr_median", "mr_egger"]
DASHED_METHODS = [name.replace("_", "-") for name in METHODS]
IVW_METHODS = ("ivw", "focused_ivw", "overall_ivw")
BETAS = ["0", "-0", "0.3", "-0.25", "1", "-1.5", "1e-200", "-1e-190", "1e200"]
BAD_NUMBERS = ["nan", "inf", "abc", ""]


def damaged(draw, rows, bad_values):
    """``rows`` as TSV lines; about one time in ten one cell becomes a bad value, and
    about one time in ten one row loses its last cell."""
    if rows and pick(draw, [False], [True]):
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        rows[r][c] = draw(st.sampled_from(bad_values))
    if rows and pick(draw, [False], [True]):
        rows[draw(st.integers(0, len(rows) - 1))].pop()
    return "".join("\t".join(row) + "\n" for row in rows)


@st.composite
def gwas_files(draw):
    """A summary-statistics TSV: the canonical header or a damaged one, then cells."""
    header = pick(draw, [["id", "beta", "se", "effect_allele", "other_allele"], ["id", "beta", "se"]],
                  [["rsid", "b", "se"], ["id", "beta"]])
    rows = [list(header)]  # damaged() edits rows in place
    for k in range(pick(draw, [3, 6, 12], [0, 1])):
        row = [f"rs{k}", draw(st.sampled_from(BETAS)),
               draw(st.sampled_from(["0.05", "0.1", "1", "1e-300"]))]
        rows.append((row + [draw(st.sampled_from("ACGT")) for _ in range(2)])[: len(header)])
    return damaged(draw, rows, ["", "rs0", "0", "-1", "AT", "N"] + BAD_NUMBERS)


@st.composite
def column_files(draw, header):
    """A TSV with the given header (effects, then standard errors) and small numeric cells."""
    rows = [list(header)]
    for _ in range(pick(draw, [1, 3, 12], [0])):
        effects = [draw(st.sampled_from(["0", "0.01", "-0.02", "0.5", "1e-300"])) for _ in range(2)]
        rows.append(effects + [draw(st.sampled_from(["0.01", "0.003", "1"])) for _ in range(2)])
    return damaged(draw, rows, ["0", "-0.1"] + BAD_NUMBERS)


@st.composite
def invocations(draw):
    """(argv with {dir} placeholders, {file name: content})."""
    files = {}
    command = pick(draw, ["test", "simulate", "diagnose", "truncnorm"], ["bogus", "--help"])
    argv = [command]
    if command == "test":
        files["exp.tsv"] = draw(gwas_files())
        files["out.tsv"] = draw(gwas_files())
        argv += ["--exposure", "{dir}/exp.tsv", "--outcome",
                 pick(draw, ["{dir}/out.tsv", "{dir}/exp.tsv"], ["{dir}/missing.tsv", "{dir}"])]
        estimator = option(draw, "--estimator", ["ivw", "median", *METHODS, *DASHED_METHODS],
                           ["lasso", "ivw,median", ""])
        argv += estimator
        argv += option(draw, "--direction", ["dy", "yd", "both", "joint"], ["up"])
        argv += option(draw, "--mode", ["id", "allele"], ["rsid"])
        argv += option(draw, "--tau-f", ["1.5", "0.5", "inf", "1e-300"], ["0", "-1", "nan"])
        argv += option(draw, "--tau-s", ["auto", "0", "1"], ["-1", "nan", "x"])
        argv += option(draw, "--alpha", ["0.05", "0.5"], ["0", "1", "nan"])
        argv += option(draw, "--col-map", ["rsid=id"], ["x", "=beta", "b=beta", "rsid=id,rsid=beta"])
        argv += option(draw, "--emit-snps", ["{dir}/snps.tsv"], ["{dir}"])
        # --emit-density applies to the IVW methods, in any spelling
        if (estimator[0].split("=")[1].replace("-", "_") if estimator else "ivw") in IVW_METHODS:
            argv += option(draw, "--emit-density", ["{dir}/density.tsv"], ["{dir}"])
    elif command == "simulate":
        if draw(st.booleans()):
            argv += [f"--synthetic={pick(draw, ['10', '24', '40'], ['-1', '0', '7', 'x'])}"]
        else:
            files["seed.tsv"] = draw(column_files(["alpha_d", "alpha_y", "se_d", "se_y"]))
            argv += ["--seed-file", "{dir}/seed.tsv"]
        argv += [f"--reps={pick(draw, ['1', '4'], ['-1', '0'])}"]
        argv += option(draw, "--methods",
                       ["focused_ivw", "focused_median,mr_median", "overall_ivw,mr_egger", "ivw",
                        "median"],
                       ["focused_ivw,focused_ivw", "ivw,focused_ivw", "lasso", ""])
        argv += option(draw, "--kappa", ["0", "1", "2"], ["-1", "nan"])
        argv += option(draw, "--beta-dy", ["0", "0.3"], ["inf"])
        argv += option(draw, "--beta-yd", ["0", "-0.3"], ["nan"])
        argv += option(draw, "--tau-f", ["1.5", "inf", "0.2"], ["0", "nan"])
        argv += option(draw, "--tau-s", ["auto", "0", "2"], ["-1"])
        argv += option(draw, "--alpha", ["0.05", "0.2"], ["1"])
        argv += option(draw, "--enforce-separation", ["2.0", "0.5"], ["0", "-1", "inf"])
        argv += option(draw, "--grid", ["0:0,0.3:0", "0:0.2"], ["x", "0.3", "", ","])
    elif command == "diagnose":
        if draw(st.booleans()):
            files["truth.tsv"] = draw(column_files(["pi_d", "pi_y", "se_d", "se_y"]))
            argv += ["--input", "{dir}/truth.tsv"]
            argv += option(draw, "--beta-dy", ["0", "0.3"], ["nan"])
            argv += option(draw, "--beta-yd", ["0", "-0.2"], ["inf"])
        else:
            # as many malformed documents as valid ones: each is a different way to fail
            files["truth.json"] = draw(st.sampled_from([
                '{"pi_d": [0.1, 0], "pi_y": [0, 0.2], "se_d": [0.01, 0.02], "se_y": [0.01, 0.01]}',
                '{"pi_d": [0.1], "pi_y": [0], "se_d": [1], "se_y": [1], "beta_dy": 0.3}',
                "[]", "1", "null", "not json", '{"p": 1}',
                '{"pi_d": "x", "pi_y": [0], "se_d": [1], "se_y": [1]}',
                '{"pi_d": [[1], [1, 2]], "pi_y": [0], "se_d": [1], "se_y": [1]}',
                '{"pi_d": [1], "pi_y": [0], "se_d": [1], "se_y": [1], "beta_dy": null}',
                '{"pi_d": [1], "pi_y": [0], "se_d": [1], "se_y": [1], "beta_yd": "x"}',
                '{"pi_d": [true, false, 0.5], "pi_y": [0.1, 0, 0.2], "se_d": [1, 1, 1], '
                '"se_y": [1, 1, 1], "beta_dy": true}',
                '{"pi_d": [1, 0, 0.5], "pi_y": ["0.1", 0, 0.2], "se_d": [1, 1, 1], '
                '"se_y": [1, 1, 1], "beta_yd": "0.25"}',
                '{"pi_d": [1%s], "pi_y": [0], "se_d": [1], "se_y": [1]}' % ("0" * 400),
                '{"pi_d": [1], "pi_y": [0], "se_d": [1], "se_y": [1], "beta_dy": 1%s}' % ("0" * 400),
            ]))
            argv += ["--input", "{dir}/truth.json"]
        argv += option(draw, "--zero-tol", ["1e-12", "0"], ["-1"])
    elif command == "truncnorm":
        for flag, value in (("--a", "-1.5"), ("--b", "1.5"), ("--mu", "0")):
            argv += [f"{flag}={pick(draw, [value, '0.5', '-inf', 'inf'], ['nan', 'x'])}"]
    if command in ("test", "simulate"):
        argv += option(draw, "--seed", ["0", "7"], ["-1", "x"])
    argv += option(draw, "--format", ["json", "tsv"], ["xml"])
    argv += ["--out", pick(draw, ["{dir}/report"], ["{dir}"])]
    return argv, files


# The ratio 1e200 / 1e-200 of --emit-snps overflows: it is written as inf, with no warning.
OVERFLOWING_RATIO = (
    ["test", "--exposure", "{dir}/exp.tsv", "--outcome", "{dir}/out.tsv", "--estimator=median",
     "--emit-snps={dir}/snps.tsv", "--out", "{dir}/report"],
    {"exp.tsv": "id\tbeta\tse\nrs0\t0\t0.05\nrs1\t1e-200\t0.05\nrs2\t0\t0.05\n",
     "out.tsv": "id\tbeta\tse\nrs0\t0\t0.05\nrs1\t1e200\t0.05\nrs2\t0\t0.05\n"},
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
@example(OVERFLOWING_RATIO)
def test_every_invocation_ends_with_a_contract_exit_code(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        args = [a.replace("{dir}", tmp) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    assert code in ALLOWED_CODES, (args, code)
