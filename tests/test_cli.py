"""End-to-end command-line behavior, determinism, and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bidirmr import cli
from bidirmr.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
EXPOSURE = str(FIXTURES / "exposure_50.tsv")
OUTCOME = str(FIXTURES / "outcome_50.tsv")
OUTCOME_FLIPPED = str(FIXTURES / "outcome_flipped_50.tsv")
EXPOSURE_EMPTY = str(FIXTURES / "exposure_empty.tsv")
OUTCOME_EMPTY = str(FIXTURES / "outcome_empty.tsv")
# A vector of this many float64 or int64 values needs 2**49 bytes, more than
# any address space: the allocation fails at once, touching no memory, even
# where the host overcommits.
HUGE_LENGTH = 2**46


def run_test_cmd(tmp_path, name, *extra):
    out = tmp_path / name
    code = main(
        ["test", "--exposure", EXPOSURE, "--outcome", OUTCOME,
         "--seed", "7", "--out", str(out), *extra]
    )
    assert code == 0
    return out


class TestTestCommand:
    def test_json_output_structure(self, tmp_path):
        out = run_test_cmd(tmp_path, "r.json")
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        assert payload["seed"] == 7
        assert payload["n_snps"] == 50
        assert {row["direction"] for row in payload["results"]} == {"dy", "yd"}
        for row in payload["results"]:
            assert row["reject"] == (row["empty_set_reject"] or row["p_value"] <= row["alpha"])

    def test_byte_identical_across_runs(self, tmp_path):
        out1 = run_test_cmd(tmp_path, "a.json", "--estimator", "median")
        out2 = run_test_cmd(tmp_path, "b.json", "--estimator", "median")
        assert out1.read_bytes() == out2.read_bytes()

    def test_outputs_do_not_depend_on_the_str_hash(self, tmp_path):
        # harmonize orders its id join by str hashes, which PYTHONHASHSEED sets
        src = str(Path(__file__).resolve().parent.parent / "src")
        runs = []
        for hash_seed in ("0", "1"):
            report, snps = tmp_path / f"{hash_seed}.json", tmp_path / f"{hash_seed}.snps.tsv"
            result = subprocess.run(
                [sys.executable, "-c", "import sys; from bidirmr.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "test", "--exposure", EXPOSURE, "--outcome", OUTCOME_FLIPPED, "--mode", "allele",
                 "--emit-snps", str(snps), "--seed", "7", "--out", str(report)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src},
            )
            runs.append((report.read_bytes(), snps.read_bytes(), result.stderr))
        assert "harmonization dropped" in runs[0][2]
        assert runs[0] == runs[1]

    def test_empty_focused_set_rejects_with_flag(self, tmp_path):
        out = tmp_path / "empty.json"
        code = main(
            ["test", "--exposure", EXPOSURE_EMPTY, "--outcome", OUTCOME_EMPTY,
             "--seed", "7", "--direction", "dy", "--out", str(out)]
        )
        assert code == 0
        row = json.loads(out.read_text())["results"][0]
        assert row["reject"] is True
        assert row["empty_set_reject"] is True
        assert row["p_value"] == 0.0
        assert row["estimate"] is None

    def test_joint_direction_emits_three_rows(self, tmp_path):
        out = run_test_cmd(tmp_path, "joint.tsv", "--direction", "joint", "--format", "tsv")
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 4  # header + dy + yd + joint
        assert lines[3].startswith("joint\tjoint")

    def test_benchmark_estimators_run(self, tmp_path):
        for estimator in ("overall-ivw", "mr-median", "mr-egger"):
            out = run_test_cmd(tmp_path, f"{estimator}.json", "--estimator", estimator)
            payload = json.loads(out.read_text())
            assert payload["params"]["estimator"] == estimator
            assert len(payload["results"]) == 2

    @pytest.mark.parametrize("alias, spellings", [
        ("ivw", ["focused_ivw", "focused-ivw"]),
        ("median", ["focused_median", "focused-median"]),
        ("overall-ivw", ["overall_ivw"]),
        ("mr-median", ["mr_median"]),
        ("mr-egger", ["mr_egger"]),
    ])
    def test_every_method_spelling_writes_the_alias_bytes(self, tmp_path, alias, spellings):
        # --estimator takes each Method value, with "-" or "_"; only params.estimator
        # keeps the spelling as given
        density = alias in ("ivw", "overall-ivw")

        def outputs(spelling):
            work = tmp_path / spelling
            work.mkdir()
            extra = ["--emit-snps", str(work / "snps.tsv")]
            extra += ["--emit-density", str(work / "density.tsv")] if density else []
            run_test_cmd(work, "report.json", "--estimator", spelling, *extra)
            return {path.name: path.read_bytes() for path in work.iterdir()}

        expected = outputs(alias)
        for spelling in spellings:
            got = outputs(spelling)
            report = got.pop("report.json")
            assert json.loads(report)["params"]["estimator"] == spelling
            param = b'"estimator": "%s"'
            assert report.replace(param % spelling.encode(), param % alias.encode(), 1) == (
                expected["report.json"]
            )
            assert got == {k: v for k, v in expected.items() if k != "report.json"}

    def test_simulate_methods_take_the_aliases(self, tmp_path, capsys):
        common = ["simulate", "--synthetic", "40", "--reps", "5", "--seed", "3", "--out"]
        for name, methods in (("alias", "ivw,median"), ("value", "focused_ivw,focused_median")):
            assert main([*common, str(tmp_path / name), "--methods", methods]) == 0
        assert (tmp_path / "alias").read_bytes() == (tmp_path / "value").read_bytes()
        capsys.readouterr()
        assert main([*common, str(tmp_path / "twice"), "--methods", "ivw,focused_ivw"]) == 2
        assert "'focused_ivw'" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["lasso", "ivw,median", "", ","])
    def test_estimator_takes_one_known_method(self, tmp_path, capsys, estimator):
        code = main(["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--seed", "1",
                     "--estimator", estimator, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "focused_ivw, focused_median, overall_ivw, mr_median, mr_egger, ivw, median" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "r.json").exists()

    def test_allele_mode_runs(self, tmp_path):
        out = run_test_cmd(tmp_path, "allele.json", "--mode", "allele")
        assert json.loads(out.read_text())["n_snps"] == 50

    def test_emit_snps_and_density(self, tmp_path):
        snps = tmp_path / "snps.tsv"
        dens = tmp_path / "dens.tsv"
        run_test_cmd(
            tmp_path, "r.json", "--emit-snps", str(snps), "--emit-density", str(dens)
        )
        snp_lines = snps.read_text().strip().split("\n")
        assert len(snp_lines) == 51
        assert snp_lines[0].split("\t")[:2] == ["id", "beta_d"]
        dens_lines = dens.read_text().strip().split("\n")
        assert dens_lines[0] == "direction\tid\tratio\tweight\tcontribution"
        assert len(dens_lines) > 1

    def test_density_rejected_for_median(self, tmp_path):
        code = main(
            ["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--seed", "1",
             "--estimator", "median", "--emit-density", str(tmp_path / "d.tsv")]
        )
        assert code == 2

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            ["test", "--exposure", str(tmp_path / "nope.tsv"), "--outcome", OUTCOME,
             "--seed", "1"]
        )
        assert code == 2

    def test_negative_seed_is_input_error(self, capsys):
        code = main(["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--seed", "-1"])
        assert code == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err

    def test_non_utf8_input_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(Path(EXPOSURE).read_bytes() + b"rs9\t0.1\xfe\t0.05\tA\tG\n")
        code = main(["test", "--exposure", str(bad), "--outcome", OUTCOME, "--seed", "1"])
        assert code == 2
        assert f"{bad}:52: not UTF-8 text" in capsys.readouterr().err

    def test_col_map_onto_existing_column_is_input_error(self, capsys):
        code = main(
            ["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--seed", "1",
             "--col-map", "effect_allele=beta"]
        )
        assert code == 2
        assert "columns ['beta'] appear more than once" in capsys.readouterr().err

    def test_out_of_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # no option of `test` sizes an allocation, so loading the outcome
        # file is made to ask for one that cannot be served
        load_gwas = cli.load_gwas

        def load_then_allocate(path, col_map=None):
            gwas = load_gwas(path, col_map)
            if path == OUTCOME:
                np.empty(HUGE_LENGTH, dtype=np.int64)
            return gwas

        monkeypatch.setattr(cli, "load_gwas", load_then_allocate)
        code = main(
            ["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--seed", "1",
             "--estimator", "median", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_absent_seed_is_recorded_as_null(self, tmp_path, capsys):
        # test draws no random number, so it makes up no seed: two runs write the same bytes
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--out", str(out)])
            assert code == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert json.loads(outputs[0])["seed"] is None
        assert outputs[0] == outputs[1]


class TestTruncnormCommand:
    def test_values(self, capsys):
        assert main(["truncnorm", "--a", "-1.5", "--b", "1.5", "--mu", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["results"][0]
        assert row["mean"] == pytest.approx(0.0, abs=1e-12)
        assert row["variance"] == pytest.approx(0.551524415762, abs=1e-9)

    def test_degenerate_window_exit_code(self, capsys):
        assert main(["truncnorm", "--a", "38", "--b", "39"]) == 3

    def test_invalid_bounds_exit_code(self, capsys):
        assert main(["truncnorm", "--a", "2", "--b", "-2"]) == 2


@pytest.mark.parametrize("argv", [["truncnorm", "--a", "-1", "--b", "1"],
                                  ["diagnose", "--input", "truth.json"]])
def test_commands_that_draw_nothing_take_no_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--synthetic", "20", "--reps", "3", "--seed", "1", "--grid", "-0.3:0,0:0.3"], 0),
    (["simulate", "--synthetic", "20", "--reps", "3", "--seed", "1", "--beta-dy", "-inf"], 2),
    (["truncnorm", "--a", "-inf", "--b", "0"], 0),
    (["truncnorm", "--b", "1", "--a", "-1e-3"], 0),
])
def test_a_value_starting_with_a_minus_reads_as_with_an_equals_sign(argv, code, capsys):
    # argparse alone reads only plain decimals such as -1 or -.5 as values
    results = []
    for form in (argv, [*argv[:-2], f"{argv[-2]}={argv[-1]}"]):
        assert main(form) == code
        results.append(capsys.readouterr())
    assert results[0] == results[1]
    assert "expected one argument" not in results[0].err


def test_an_option_after_a_value_option_is_still_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--synthetic", "20", "--beta-dy", "--seed", "1"])
    assert exc.value.code == 2
    assert "--beta-dy: expected one argument" in capsys.readouterr().err


# 1e308 * 1e-308 rounds to nearly 1: the reduced form's denominator is about 1e-16
@pytest.mark.parametrize("argv", [
    ["simulate", "--synthetic", "20", "--reps", "3", "--seed", "1", "--beta-dy", "1e308",
     "--beta-yd", "1e-308"],
    ["simulate", "--synthetic", "20", "--reps", "3", "--seed", "1", "--grid", "0:0,1e308:1e-308"],
    ["diagnose"],
])
def test_a_reduced_form_that_overflows_names_the_causal_pair(argv, tmp_path, capsys):
    if argv == ["diagnose"]:
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"pi_d": [0.1, 0.2, 0.0], "pi_y": [0.0, 0.1, 0.3],
                                    "beta_dy": 1e308, "beta_yd": 1e-308,
                                    "se_d": [1, 1, 1], "se_y": [1, 1, 1]}))
        argv = ["diagnose", "--input", str(path)]
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning raised on the way fails the test
        assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: beta_dy=1e+308 and beta_yd=1e-308 give a reduced form that is not "
                   "finite\n")
    assert not out.exists()


class TestDiagnoseCommand:
    def test_json_input(self, tmp_path, capsys):
        payload = {
            "beta_dy": 0.0,
            "beta_yd": 0.2,
            "pi_d": [1.0, 0.0],
            "pi_y": [0.0, 1.0],
            "se_d": [0.1, 0.1],
            "se_y": [0.1, 0.1],
        }
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        assert main(["diagnose", "--input", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["counts"] == {"null": 0, "valid_dy": 1, "valid_yd": 1, "pleiotropic": 0}
        dy_row = out["results"][0]
        assert dy_row["direction"] == "dy"
        assert dy_row["valid_rule"] is False

    def test_tsv_input_with_beta_flags(self, tmp_path, capsys):
        path = tmp_path / "truth.tsv"
        path.write_text("pi_d\tpi_y\tse_d\tse_y\n1.0\t0.0\t0.1\t0.1\n0.0\t1.0\t0.1\t0.1\n")
        assert main(["diagnose", "--input", str(path), "--beta-dy", "0", "--beta-yd", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"][0]["valid_rule"] is True

    @pytest.mark.parametrize("key, value", [
        ("pi_d", [True, False, 0.5]), ("pi_y", ["0.1", 0, 0.2]), ("se_d", [1, None, 1]),
        ("beta_dy", True), ("beta_yd", "0.25"),
    ])
    def test_json_accepts_only_numbers(self, tmp_path, capsys, key, value):
        # booleans and numeric strings would otherwise be read as numbers
        payload = {"pi_d": [1, 0, 0.5], "pi_y": [0.1, 0, 0.2], "se_d": [1, 1, 1],
                   "se_y": [1, 1, 1], "beta_dy": 0, "beta_yd": 0.25, key: value}
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(payload))
        assert main(["diagnose", "--input", str(path), "--out", str(tmp_path / "d.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {key} must be ") and "JSON number" in err
        assert not (tmp_path / "d.json").exists()

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_text('{"pi_d": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["diagnose", "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON")

    def test_nan_zero_tol_is_input_error(self, tmp_path, capsys):
        # a NaN tolerance compares false with every magnitude: unchecked, it
        # would class every SNP as pleiotropic
        path = tmp_path / "truth.tsv"
        path.write_text(
            "pi_d\tpi_y\tse_d\tse_y\n0\t0\t0.1\t0.1\n1\t0\t0.1\t0.1\n"
            "0\t1\t0.1\t0.1\n1\t1\t0.1\t0.1\n"
        )
        out = tmp_path / "diag.json"
        assert main(["diagnose", "--input", str(path), "--zero-tol", "nan", "--out", str(out)]) == 2
        assert "zero_tol must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_small_synthetic_run(self, tmp_path):
        out = tmp_path / "sim.json"
        code = main(
            ["simulate", "--synthetic", "40", "--reps", "5", "--methods",
             "focused_ivw,overall_ivw", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert list(payload) == ["schema_version", "command", "seed", "params", "cells", "results"]
        assert payload["schema_version"] == 2
        assert payload["params"]["p"] == 40
        assert len(payload["results"]) == 4  # 2 methods x 2 directions
        [cell] = payload["cells"]
        assert list(cell) == ["beta_dy", "beta_yd", "mean_rho", "mean_corr_pi"]
        assert (cell["beta_dy"], cell["beta_yd"]) == (0.0, 0.0)
        assert abs(sum(cell["mean_rho"]) - 1.0) < 1e-9

    def test_generated_seed_printed_when_absent(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        assert main(["simulate", "--synthetic", "20", "--reps", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("seed: ")
        assert json.loads(out.read_text())["seed"] == int(err.split()[1])

    def test_deterministic_given_seed(self, tmp_path):
        args = ["simulate", "--synthetic", "40", "--reps", "5", "--seed", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_grid_tsv(self, tmp_path):
        out = tmp_path / "grid.tsv"
        code = main(
            ["simulate", "--synthetic", "40", "--reps", "3", "--seed", "5",
             "--grid", "0:0,0.3:0", "--format", "tsv", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("beta_dy\tbeta_yd\tmethod\tdirection")
        assert len(lines) == 1 + 2 * 2  # two cells x one method x two directions

    @pytest.mark.parametrize("fmt", ["json", "tsv"])
    @pytest.mark.parametrize("beta_dy, beta_yd", [
        ("0.3", None), ("-0", None), (None, "0.2"), ("0.1", "-0.2"),
    ])
    def test_beta_flag_run_equals_its_grid_of_one(self, tmp_path, fmt, beta_dy, beta_yd):
        # a run with --beta-dy/--beta-yd writes the document of its grid of one cell
        common = ["simulate", "--synthetic", "40", "--reps", "6", "--seed", "4",
                  "--methods", "focused_ivw,mr_egger", "--format", fmt]
        flags = [] if beta_dy is None else ["--beta-dy", beta_dy]
        flags += [] if beta_yd is None else ["--beta-yd", beta_yd]
        single, grid = tmp_path / f"single.{fmt}", tmp_path / f"grid.{fmt}"
        assert main([*common, *flags, "--out", str(single)]) == 0
        assert main([*common, f"--grid={beta_dy or 0}:{beta_yd or 0}", "--out", str(grid)]) == 0
        assert single.read_bytes() == grid.read_bytes()
        if fmt == "json":
            # a -0.0 stays -0.0
            [cell] = json.loads(single.read_text())["cells"]
            assert json.dumps([cell["beta_dy"], cell["beta_yd"]]) == json.dumps(
                [float(beta_dy or 0), float(beta_yd or 0)]
            )

    @pytest.mark.parametrize("grid", [",", "", " , "])
    def test_grid_without_a_pair_is_input_error(self, tmp_path, capsys, grid):
        out = tmp_path / "grid.json"
        code = main(["simulate", "--synthetic", "20", "--seed", "1", f"--grid={grid}",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --grid must list at least one BETA_DY:BETA_YD pair, got {grid!r}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--grid", "0.3"], "--grid entry '0.3' is not two numbers BETA_DY:BETA_YD"),
        (["--grid", "0:0, 1:2:3"], "--grid entry '1:2:3' is not two numbers BETA_DY:BETA_YD"),
        (["--grid", "x:1"], "--grid entry 'x:1' is not two numbers BETA_DY:BETA_YD"),
        (["--grid", "0:nan"], "--grid entry '0:nan': BETA_YD must be a finite number, got nan"),
        (["--grid", "2:0.5"],
         "--grid entry '2:0.5': BETA_DY * BETA_YD must be other than 1, got 2.0 * 0.5"),
        (["--beta-dy", "2", "--beta-yd", "0.5"],
         "--beta-dy * --beta-yd must be other than 1, got 2.0 * 0.5"),
        (["--beta-dy=-inf"], "--beta-dy must be a finite number, got -inf"),
        (["--beta-yd", "nan"], "--beta-yd must be a finite number, got nan"),
    ])
    def test_a_bad_causal_pair_names_the_option_as_typed(self, tmp_path, capsys, flags, message):
        out = tmp_path / "grid.json"
        code = main(["simulate", "--synthetic", "20", "--reps", "3", "--seed", "1", *flags,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--beta-dy", "--beta-yd"])
    def test_beta_flag_with_grid_is_input_error(self, tmp_path, capsys, flag):
        # the grid's pairs set both effects: a flag beside it would be dropped silently
        out = tmp_path / "grid.json"
        code = main(
            ["simulate", "--synthetic", "40", "--reps", "5", "--seed", "1", flag, "0.5",
             "--grid", "0:0", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--beta-dy" in err and "--beta-yd" in err and "--grid" in err
        assert not out.exists()

    def test_seed_file_source(self, tmp_path):
        seed_path = tmp_path / "seed.tsv"
        rows = ["alpha_d\talpha_y\tse_d\tse_y"]
        rows += [f"{0.1 + 0.01 * j}\t{0.2 - 0.01 * j}\t0.05\t0.05" for j in range(12)]
        seed_path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "sim.json"
        code = main(
            ["simulate", "--seed-file", str(seed_path), "--reps", "3", "--seed", "2",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["params"]["p"] == 12

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["simulate", "--synthetic", "40", "--reps", "2", "--seed", "-1"]) == 2
        assert "--seed must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("tau_f, c1, remedy", [
        ("inf", "2.0", "give a finite --tau-f"),
        ("1.5", "1e308", "--enforce-separation is too large"),
    ])
    def test_infinite_separation_floor_names_its_cause(self, capsys, tau_f, c1, remedy):
        code = main(["simulate", "--synthetic", "10", "--reps", "3", "--tau-f", tau_f,
                     "--enforce-separation", c1, "--seed", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "gives no finite separation floor" in err and err.rstrip().endswith(remedy)
        assert "Traceback" not in err

    def test_out_of_memory_is_input_error(self, tmp_path, capsys):
        # the synthetic seed draws HUGE_LENGTH normal deviates at once
        code = main(
            ["simulate", "--synthetic", str(HUGE_LENGTH), "--methods", "focused_median,mr_median",
             "--reps", "1", "--seed", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: out of memory: ")

    def test_repeated_method_is_input_error(self, tmp_path, capsys):
        # two spellings of one method would run it twice and count its errors twice
        out = tmp_path / "r.json"
        code = main(
            ["simulate", "--synthetic", "40", "--reps", "20", "--seed", "1", "--tau-s", "12",
             "--methods", "mr_egger,mr-egger", "--out", str(out)]
        )
        assert code == 2
        assert "'mr_egger'" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_method_is_input_error(self, tmp_path):
        code = main(
            ["simulate", "--synthetic", "40", "--reps", "2", "--seed", "1",
             "--methods", "psychic"]
        )
        assert code == 2

    def test_separation_needs_a_finite_tau_f(self, tmp_path, capsys):
        # the floor c1 * tau_f * sqrt(log p) would be infinite
        code = main(
            ["simulate", "--synthetic", "20", "--reps", "2", "--seed", "1", "--tau-f", "inf",
             "--enforce-separation", "2.0", "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--tau-f" in err and "--enforce-separation" in err
        assert "Warning" not in err
        assert not (tmp_path / "r.json").exists()


# (1e-200 / 1)^2 underflows to zero: the D->Y IVW weights sum to zero
UNDERFLOW_EXPOSURE = "a\t1e-200\t1\nb\t-1e-190\t1\n"
UNDERFLOW_OUTCOME = "a\t0\t1\nb\t0.3\t2\n"


class TestDegenerateWeights:
    """IVW weights ``(beta_exp / se_out)^2`` that sum to 0 or inf are a degeneracy: exit 3."""

    def _run(self, tmp_path, exposure_rows, outcome_rows, estimator):
        exposure, outcome = tmp_path / "e.tsv", tmp_path / "o.tsv"
        exposure.write_text("id\tbeta\tse\n" + exposure_rows)
        outcome.write_text("id\tbeta\tse\n" + outcome_rows)
        return main(
            ["test", "--exposure", str(exposure), "--outcome", str(outcome), "--tau-f", "inf",
             "--tau-s", "0", "--estimator", estimator, "--direction", "dy", "--seed", "1",
             "--out", str(tmp_path / "r.json")]
        )

    @pytest.mark.parametrize("estimator", ["ivw", "overall-ivw"])
    def test_underflowing_weights_exit_3(self, tmp_path, capsys, estimator):
        code = self._run(tmp_path, UNDERFLOW_EXPOSURE, UNDERFLOW_OUTCOME, estimator)
        assert code == 3
        assert "underflow to zero" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", ["ivw", "overall-ivw"])
    def test_overflowing_weights_exit_3(self, tmp_path, capsys, estimator):
        # (1 / 1e-200)^2 overflows
        exposure, outcome = "a\t1\t1\nb\t2\t1\n", "a\t0.1\t1e-200\nb\t0.2\t1e-200\n"
        code = self._run(tmp_path, exposure, outcome, estimator)
        assert code == 3
        assert "overflow" in capsys.readouterr().err

    def test_median_reports_the_underflowing_weights(self, tmp_path):
        code = self._run(tmp_path, UNDERFLOW_EXPOSURE, UNDERFLOW_OUTCOME, "median")
        assert code == 0
        row = json.loads((tmp_path / "r.json").read_text())["results"][0]
        assert row["weight_sum"] == 0.0 and row["max_weight_share"] is None


class TestExtremeRatios:
    """Ratio sets whose medians overflow or are NaN end the median tests with exit 0."""

    _run = TestDegenerateWeights._run

    @pytest.mark.parametrize("estimator", ["median", "mr-median"])
    def test_median_of_overflowing_pair_means_is_infinite(self, tmp_path, estimator):
        # ratios 9e307, 9.5e307, 1 and 2: np.median of the two largest overflows to inf
        exposure, outcome = "a\t1e-300\t1\nb\t1e-300\t1\nc\t1\t1\nd\t1\t1\n", (
            "a\t9e7\t1\nb\t9.5e7\t1\nc\t1\t1\nd\t2\t1\n")
        assert self._run(tmp_path, exposure, outcome, estimator) == 0
        row = json.loads((tmp_path / "r.json").read_text())["results"][0]
        assert row["estimate"] == 4.5e307 and row["se"] is None  # inf is reported as null

    @pytest.mark.parametrize("estimator", ["median", "mr-median"])
    def test_median_of_infinite_ratios_of_both_signs_exits_0(self, tmp_path, estimator):
        # -inf and +inf pair to NaN medians, so no scale reaches the upper quantile
        exposure, outcome = "a\t1e-310\t1\nb\t1e-310\t1\nc\t1e-310\t1\nd\t1e-310\t1\n", (
            "a\t1\t1\nb\t2\t1\nc\t-1\t1\nd\t-2\t1\n")
        assert self._run(tmp_path, exposure, outcome, estimator) == 0
        row = json.loads((tmp_path / "r.json").read_text())["results"][0]
        assert row["estimate"] is None and row["se"] is None

    def test_density_table_writes_an_overflowing_ratio_as_inf(self, tmp_path):
        # b's ratio 1e200 / 1e-200 overflows and its weight (1e-200 / 0.05)^2
        # underflows to 0, so its contribution 0 * inf is nan
        exposure, outcome = tmp_path / "e.tsv", tmp_path / "o.tsv"
        exposure.write_text("id\tbeta\tse\na\t0.5\t0.05\nb\t1e-200\t1e-300\nc\t-0.3\t0.05\n")
        outcome.write_text("id\tbeta\tse\na\t0.1\t0.05\nb\t1e200\t0.05\nc\t0.2\t0.05\n")
        density = tmp_path / "d.tsv"
        code = main(
            ["test", "--exposure", str(exposure), "--outcome", str(outcome), "--tau-s", "0",
             "--estimator", "overall-ivw", "--direction", "dy", "--emit-density", str(density),
             "--seed", "1", "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        assert density.read_text().splitlines()[2] == "dy\tb\tinf\t0\tnan"


# (command line before the input path, header, a column of the header)
NUMERIC_TSV_COMMANDS = {
    "simulate": (["simulate", "--reps", "2", "--seed", "1", "--seed-file"],
                 "alpha_d\talpha_y\tse_d\tse_y", "alpha_y"),
    "diagnose": (["diagnose", "--input"], "pi_d\tpi_y\tse_d\tse_y", "pi_y"),
}


@pytest.mark.parametrize("command", sorted(NUMERIC_TSV_COMMANDS))
class TestNumericTsvInputs:
    """``simulate --seed-file`` and ``diagnose --input`` read their TSV like ``load_gwas``."""

    def _run(self, tmp_path, command, content: bytes):
        argv, _, _ = NUMERIC_TSV_COMMANDS[command]
        path = tmp_path / "input.tsv"
        path.write_bytes(content)
        return main([*argv, str(path), "--out", str(tmp_path / "r.json")]), str(path)

    def test_undecodable_byte_is_input_error_on_its_line(self, tmp_path, capsys, command):
        _, header, _ = NUMERIC_TSV_COMMANDS[command]
        rows = "0.1\t0.2\t0.05\t0.05\n0.0\t0.3\t0.06\t0.05"
        code, path = self._run(tmp_path, command, f"{header}\n{rows}".encode() + b"\xff\n")
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: not UTF-8 text")

    def test_error_names_the_line_its_record_starts_on(self, tmp_path, capsys, command):
        # the first record's quoted field holds a newline: the second record
        # starts on line 4, though it is the file's third record
        _, header, column = NUMERIC_TSV_COMMANDS[command]
        text = f'{header}\n"0.1\n"\t0.2\t0.05\t0.05\n0.1\tx\t0.05\t0.05\n'
        code, path = self._run(tmp_path, command, text.encode())
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:4: column {column!r} has non-numeric value 'x'")

    @pytest.mark.parametrize("column,row,shown", [("se_d", "0.1\t0.2\t-0.01\t0.05", "-0.01"),
                                                  ("se_y", "0.1\t0.2\t0.05\t0", "0.0")])
    def test_nonpositive_standard_error_names_its_line(
        self, tmp_path, capsys, command, column, row, shown
    ):
        _, header, _ = NUMERIC_TSV_COMMANDS[command]
        text = f"{header}\n0.1\t0.2\t0.05\t0.05\n{row}\n"
        code, path = self._run(tmp_path, command, text.encode())
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3: standard error {column!r} must be positive, got {shown}\n"
        )

    def test_quoted_newline_is_read_as_its_value(self, tmp_path, command):
        _, header, _ = NUMERIC_TSV_COMMANDS[command]
        text = f'{header}\n"0.1\n"\t0.2\t0.05\t0.05\n0.0\t0.3\t0.06\t0.05\n'
        code, _ = self._run(tmp_path, command, text.encode())
        assert code == 0
