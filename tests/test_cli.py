"""End-to-end command-line behavior, determinism, and exit codes."""

import json
import os
import subprocess
import sys
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
        assert payload["schema_version"] == 1
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

    def test_generated_seed_printed_when_absent(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["test", "--exposure", EXPOSURE, "--outcome", OUTCOME, "--out", str(out)])
        assert code == 0
        assert "seed:" in capsys.readouterr().err


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
        assert payload["params"]["p"] == 40
        assert len(payload["results"]) == 4  # 2 methods x 2 directions
        assert abs(sum(payload["mean_rho"]) - 1.0) < 1e-9

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

    @pytest.mark.parametrize("beta", ["0.3", "-0"])
    def test_beta_flag_run_equals_its_grid_of_one(self, tmp_path, beta):
        # a grid cell's rows equal a run with --beta-dy/--beta-yd set to that cell
        common = ["simulate", "--synthetic", "40", "--reps", "6", "--seed", "4",
                  "--methods", "focused_ivw,mr_egger"]
        single, grid = tmp_path / "single.json", tmp_path / "grid.json"
        assert main([*common, "--beta-dy", beta, "--out", str(single)]) == 0
        assert main([*common, f"--grid={beta}:0", "--out", str(grid)]) == 0
        single, grid = json.loads(single.read_text()), json.loads(grid.read_text())
        # compared as JSON text, so a -0.0 must stay -0.0 on both sides
        assert json.dumps(single["results"]) == json.dumps(grid["results"])
        assert json.dumps(single["results"][0]["beta_dy"]) == json.dumps(float(beta))
        assert single["mean_rho"] == grid["cells"][0]["mean_rho"]

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
