"""Parsing, harmonization, and deterministic serialization."""

import json

import numpy as np
import pytest

from bidirmr.errors import (
    DuplicateVariantError,
    EmptyIntersectionError,
    GwasParseError,
    InputError,
    NonPositiveSEError,
)
import bidirmr.gwasio as gwasio
from bidirmr.gwasio import (
    ColumnTable,
    HarmonizeMode,
    MaskedColumn,
    ReportFormat,
    emit_report,
    format_document,
    harmonize,
    load_float_columns,
    load_gwas,
    parse_col_map,
    write_tsv_rows,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BASIC = "id\tbeta\tse\nrs1\t0.10\t0.05\nrs2\t-0.20\t0.04\nrs3\t0.05\t0.06\n"


class TestLoadGwas:
    def test_well_formed(self, tmp_path):
        gwas = load_gwas(write(tmp_path, "x.tsv", BASIC))
        assert gwas.n == 3
        assert gwas.ids == ("rs1", "rs2", "rs3")
        np.testing.assert_allclose(gwas.beta, [0.10, -0.20, 0.05])
        assert not gwas.has_alleles

    def test_zero_se_rejected_with_line(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\nrs1\t0.1\t0.05\nrs2\t0.2\t0\n")
        with pytest.raises(NonPositiveSEError) as exc:
            load_gwas(path)
        assert exc.value.line == 3

    def test_column_alias_mapping(self, tmp_path):
        path = write(tmp_path, "x.tsv", "snp\tb\tse\nrs1\t0.1\t0.05\n")
        gwas = load_gwas(path, parse_col_map("snp=id,b=beta"))
        assert gwas.ids == ("rs1",)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\nrs1\t0.1\n")
        with pytest.raises(GwasParseError):
            load_gwas(path)

    def test_duplicate_variant(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\nrs1\t0.1\t0.05\nrs1\t0.2\t0.04\n")
        with pytest.raises(DuplicateVariantError):
            load_gwas(path)

    def test_non_numeric_value_reports_line(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\nrs1\t0.1\t0.05\nrs2\tNA\t0.04\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert exc.value.line == 3

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\nrs1\t0.1\n")
        with pytest.raises(GwasParseError):
            load_gwas(path)

    def test_alleles_parsed_when_both_present(self, tmp_path):
        path = write(
            tmp_path, "x.tsv",
            "id\tbeta\tse\teffect_allele\tother_allele\nrs1\t0.1\t0.05\ta\tg\n",
        )
        gwas = load_gwas(path)
        assert gwas.has_alleles
        assert gwas.effect_allele.tolist() == ["A"]
        assert gwas.other_allele.tolist() == ["G"]

    def test_bad_col_map_spec(self):
        with pytest.raises(InputError):
            parse_col_map("b=betamax")
        with pytest.raises(InputError):
            parse_col_map("nonsense")


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


# Each case runs once as read by default ("fast": the fast parse, or the
# strict reader where it declines) and once per chunk size with the fast parse
# made to decline; small chunks put row errors, duplicates and chunk ends at
# every offset of the strict reader.
@pytest.fixture(params=[1, 2, 3, gwasio._CHUNK_ROWS, "fast"])
def chunk_rows(request, monkeypatch):
    if request.param != "fast":
        monkeypatch.setattr(gwasio, "_CHUNK_ROWS", request.param)
        monkeypatch.setattr(gwasio, "_fast_columns", lambda *args: None)
    return request.param


class TestParserEdgeCases:
    def test_crlf_line_endings(self, tmp_path, chunk_rows):
        gwas = load_gwas(write_bytes(tmp_path, "x.tsv", BASIC.replace("\n", "\r\n").encode()))
        assert gwas.ids == ("rs1", "rs2", "rs3")
        assert gwas.beta.tolist() == [0.10, -0.20, 0.05]
        assert gwas.se.tolist() == [0.05, 0.04, 0.06]

    def test_quoted_fields(self, tmp_path, chunk_rows):
        text = 'id\t"beta"\tse\n"rs1"\t"0.1"\t0.05\n"rs 2\twith tab"\t0.2\t"0.04"\n'
        gwas = load_gwas(write(tmp_path, "x.tsv", text))
        assert gwas.ids == ("rs1", "rs 2\twith tab")
        assert gwas.beta.tolist() == [0.1, 0.2]

    def test_line_numbers_name_physical_lines(self, tmp_path, chunk_rows):
        # A quoted newline makes one record span two lines; the error names
        # the line the bad record starts on.
        text = 'id\tbeta\tse\n"rs\n1"\t0.1\t0.05\nrs2\tx\t0.04\n'
        with pytest.raises(GwasParseError) as exc:
            load_gwas(write(tmp_path, "x.tsv", text))
        assert exc.value.line == 4
        assert str(exc.value).startswith(f"{exc.value.path}:4: ")

    def test_duplicate_after_multiline_record_names_its_line(self, tmp_path, chunk_rows):
        text = 'id\tbeta\tse\n"rs\n\n1"\t0.1\t0.05\nrs2\t0.1\t0.04\nrs2\t0.2\t0.04\n'
        with pytest.raises(DuplicateVariantError) as exc:
            load_gwas(write(tmp_path, "x.tsv", text))
        assert exc.value.line == 6

    def test_padded_whitespace(self, tmp_path, chunk_rows):
        text = " id \t beta \t se \n rs1 \t 0.1 \t 0.05 \n"
        gwas = load_gwas(write(tmp_path, "x.tsv", text))
        assert gwas.ids == ("rs1",)
        assert gwas.beta.tolist() == [0.1]
        assert gwas.se.tolist() == [0.05]

    def test_lower_case_and_padded_alleles(self, tmp_path, chunk_rows):
        text = allele_file(["rs1\t0.1\t0.05\ta\t g \n", "rs2\t0.1\t0.05\tAc\tgt\n"])
        gwas = load_gwas(write(tmp_path, "x.tsv", text))
        assert gwas.effect_allele.tolist() == ["A", "AC"]
        assert gwas.other_allele.tolist() == ["G", "GT"]

    def test_underscore_and_exponent_floats(self, tmp_path, chunk_rows):
        text = "id\tbeta\tse\nrs1\t1_000\t1e-3\nrs2\t-2.5E2\t.5\n"
        gwas = load_gwas(write(tmp_path, "x.tsv", text))
        assert gwas.beta.tolist() == [1000.0, -250.0]
        assert gwas.se.tolist() == [0.001, 0.5]

    def test_header_only_file(self, tmp_path, chunk_rows):
        gwas = load_gwas(write(tmp_path, "x.tsv", allele_file([])))
        assert gwas.n == 0
        assert gwas.beta.shape == gwas.se.shape == gwas.effect_allele.shape == (0,)

    @pytest.mark.parametrize(
        "body,error,line,message",
        [
            ("rs1\t0.1\n", GwasParseError, 2, "expected 3 fields, got 2"),
            ("rs1\t0.1\t0.05\t9\n", GwasParseError, 2, "expected 3 fields, got 4"),
            ("rs1\t0.1\t0.05\n\n", GwasParseError, 3, "expected 3 fields, got 0"),
            ("  \t0.1\t0.05\n", GwasParseError, 2, "empty variant id"),
            ("rs1\t0.1\t0.05\nrs1 \t0.1\t0.05\n", DuplicateVariantError, 3,
             "duplicate variant id 'rs1'"),
            ("rs1\tNA\t0.05\n", GwasParseError, 2, "column 'beta' has non-numeric value 'NA'"),
            ("rs1\t0x1p3\t0.05\n", GwasParseError, 2,
             "column 'beta' has non-numeric value '0x1p3'"),
            ("rs1\t\t0.05\n", GwasParseError, 2, "column 'beta' has non-numeric value ''"),
            ("rs1\t-inf\t0.05\n", GwasParseError, 2, "column 'beta' has non-finite value '-inf'"),
            ("rs1\t0.1\tabc\n", GwasParseError, 2, "column 'se' has non-numeric value 'abc'"),
            ("rs1\t0.1\t nan \n", GwasParseError, 2, "column 'se' has non-finite value 'nan'"),
            ("rs1\t0.1\t1e999\n", GwasParseError, 2, "column 'se' has non-finite value '1e999'"),
            ("rs1\t0.1\t0\n", NonPositiveSEError, 2, "standard error must be positive, got 0.0"),
            ("rs1\t0.1\t-0.5\n", NonPositiveSEError, 2,
             "standard error must be positive, got -0.5"),
        ],
    )
    def test_row_errors(self, tmp_path, chunk_rows, body, error, line, message):
        # Two valid rows first, so the bad row sits at every chunk offset.
        text = "id\tbeta\tse\nok1\t0.1\t0.05\nok2\t0.1\t0.05\n" + body
        path = write(tmp_path, "x.tsv", text)
        with pytest.raises(error) as exc:
            load_gwas(path)
        assert type(exc.value) is error
        assert exc.value.line == line + 2
        assert str(exc.value) == f"{path}:{line + 2}: {message}"

    @pytest.mark.parametrize(
        "rows,error,line",
        [
            # non-numeric before a duplicate, in the same or a later chunk
            (["a\t0.1\t0.05", "b\tx\t0.05", "a\t0.1\t0.05"], GwasParseError, 3),
            # duplicate before a non-numeric value
            (["a\t0.1\t0.05", "a\t0.1\t0.05", "b\tx\t0.05"], DuplicateVariantError, 3),
            (["a\t0.1\t0.05", "b\t0.1\t0.05", "c\t0.1\t0.05", "b\t0.1\t0.05",
              "d\t0.1\t0"], DuplicateVariantError, 5),
            # zero SE before a ragged row
            (["a\t0.1\t0.05", "b\t0.1\t0", "c\t0.1"], NonPositiveSEError, 3),
            # ragged row before a duplicate
            (["a\t0.1\t0.05", "b\t0.1", "a\t0.1\t0.05"], GwasParseError, 3),
            # two duplicates: the first repeat wins
            (["a\t0.1\t0.05", "b\t0.1\t0.05", "b\t0.1\t0.05", "a\t0.1\t0.05"],
             DuplicateVariantError, 4),
        ],
    )
    def test_first_of_two_errors_is_reported(self, tmp_path, chunk_rows, rows, error, line):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\n" + "\n".join(rows) + "\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert type(exc.value) is error
        assert exc.value.line == line

    @pytest.mark.parametrize("column,value", [("se_d", "-0.01"), ("se_y", "0")])
    def test_nonpositive_se_of_a_numeric_table_names_its_line(
        self, tmp_path, chunk_rows, column, value
    ):
        # every standard-error column is held positive, not only a GWAS file's se
        row = {"se_d": "0.05", "se_y": "0.05", column: value}
        text = "alpha_d\tse_d\tse_y\n0.1\t0.05\t0.05\n0.2\t{se_d}\t{se_y}\n".format(**row)
        path = write(tmp_path, "x.tsv", text)
        with pytest.raises(NonPositiveSEError) as exc:
            load_float_columns(path, ("alpha_d", "se_d", "se_y"))
        assert exc.value.line == 3
        assert str(exc.value) == (
            f"{path}:3: standard error {column!r} must be positive, got {float(value)}"
        )

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "x.tsv", "")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert exc.value.line is None
        assert str(exc.value) == f"{path}: file is empty"

    def test_missing_columns_on_line_one(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\nrs1\t0.1\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert exc.value.line == 1
        assert str(exc.value) == f"{path}:1: missing required columns ['se']"

    def test_non_utf8_byte_reports_its_line(self, tmp_path, chunk_rows):
        data = BASIC.encode() + b"rs4\t0.1\xff\t0.05\nrs5\t0.1\t0.05\n"
        with pytest.raises(GwasParseError) as exc:
            load_gwas(write_bytes(tmp_path, "x.tsv", data))
        assert exc.value.line == 5
        assert "not UTF-8 text" in str(exc.value)

    def test_truncated_utf8_sequence_at_end(self, tmp_path):
        data = BASIC.encode() + b"rs4\t0.1\t0.05\xe2\x82"
        with pytest.raises(GwasParseError) as exc:
            load_gwas(write_bytes(tmp_path, "x.tsv", data))
        assert exc.value.line == 5

    def test_non_ascii_utf8_ids_accepted(self, tmp_path):
        gwas = load_gwas(write(tmp_path, "x.tsv", "id\tbeta\tse\nrs\u00e91\t0.1\t0.05\n"))
        assert gwas.ids == ("rs\u00e91",)

    def test_csv_error_is_parse_error(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tbeta\tse\nrs1\t0.1\t0.05\n" + "x" * 200_000 + "\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert exc.value.line == 3
        assert "malformed TSV" in str(exc.value)

    def test_column_map_colliding_with_existing_column(self, tmp_path):
        path = write(tmp_path, "x.tsv", "b\tbeta\tse\tid\n0.1\t0.2\t0.05\trs1\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path, parse_col_map("b=beta"))
        assert exc.value.line == 1
        assert str(exc.value) == f"{path}:1: columns ['beta'] appear more than once"

    def test_repeated_header_rejected(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tse\tbeta\tse\nrs1\t0.05\t0.2\t0.06\n")
        with pytest.raises(GwasParseError) as exc:
            load_gwas(path)
        assert exc.value.line == 1

    def test_repeated_unused_column_is_fine(self, tmp_path):
        path = write(tmp_path, "x.tsv", "id\tp\tbeta\tp\tse\nrs1\tx\t0.2\ty\t0.05\n")
        assert load_gwas(path).beta.tolist() == [0.2]


class TestWriteTsvRows:
    def read(self, path):
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()

    def test_cells_by_column_kind(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        table = ColumnTable([
            ("a", "b", "c"),
            np.array([0.1, 1.0 / 3.0, -2e-20]),
            np.array([True, False, True]),
            np.array([3, 4, 5]),
            MaskedColumn(np.array([1.5, 0.0, float("inf")]), np.array([False, True, False])),
        ])
        assert len(table) == 3
        write_tsv_rows(path, ["s", "f", "b", "i", "m"], table)
        assert self.read(path) == (
            "s\tf\tb\ti\tm\n"
            "a\t0.1\ttrue\t3\t1.5\n"
            "b\t0.333333333333\tfalse\t4\t\n"
            "c\t-2e-20\ttrue\t5\tinf\n"
        )

    def test_reals_match_twelve_digit_format(self, tmp_path, rng):
        values = np.concatenate([
            rng.normal(0.0, 1.0, 200) * 10.0 ** rng.integers(-30, 30, 200),
            [0.0, -0.0, float("nan"), float("-inf"), 1e16, 123456789012.5, 5e-324],
        ])
        path = str(tmp_path / "t.tsv")
        write_tsv_rows(path, ["v"], ColumnTable([values]))
        assert self.read(path).split("\n")[1:-1] == [f"{v:.12g}" for v in values.tolist()]

    def test_chunked_writing_matches_one_chunk(self, tmp_path, monkeypatch, rng):
        n = 11
        missing = rng.random(n) < 0.3
        table = ColumnTable([
            [f"rs{j}" for j in range(n)], rng.normal(size=n), rng.random(n) < 0.5,
            MaskedColumn(rng.normal(size=n), missing),
        ])
        whole = str(tmp_path / "whole.tsv")
        write_tsv_rows(whole, list("abcd"), table)
        for rows in (1, 2, 3, 10):
            monkeypatch.setattr(gwasio, "_WRITE_ROWS", rows)
            part = str(tmp_path / f"part{rows}.tsv")
            write_tsv_rows(part, list("abcd"), table)
            assert self.read(part) == self.read(whole)
        assert self.read(whole).count("\t\n") == missing.sum()

    def test_empty_table_writes_header(self, tmp_path):
        path = str(tmp_path / "t.tsv")
        write_tsv_rows(path, ["a", "b"], ColumnTable([(), np.empty(0)]))
        assert self.read(path) == "a\tb\n"

    def test_unequal_columns_rejected(self):
        with pytest.raises(InputError):
            ColumnTable([("a", "b"), np.zeros(3)])

    def test_header_must_match_columns(self, tmp_path):
        with pytest.raises(InputError):
            write_tsv_rows(str(tmp_path / "t.tsv"), ["a"], ColumnTable([("x",), ("y",)]))


def allele_file(rows):
    header = "id\tbeta\tse\teffect_allele\tother_allele\n"
    return header + "".join(rows)


class TestHarmonize:
    def test_by_id_full_join(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        outcome = load_gwas(write(tmp_path, "o.tsv", BASIC))
        panel = harmonize(exposure, outcome, HarmonizeMode.BY_ID)
        assert len(panel) == 3
        assert panel.ids == ("rs1", "rs2", "rs3")

    def test_order_follows_exposure_file(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        reordered = "id\tbeta\tse\nrs3\t0.05\t0.06\nrs1\t0.10\t0.05\nrs2\t-0.20\t0.04\n"
        outcome = load_gwas(write(tmp_path, "o.tsv", reordered))
        panel = harmonize(exposure, outcome)
        assert panel.ids == ("rs1", "rs2", "rs3")

    def test_partial_overlap(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        outcome = load_gwas(
            write(tmp_path, "o.tsv", "id\tbeta\tse\nrs2\t0.3\t0.05\nrs9\t0.1\t0.05\n")
        )
        panel = harmonize(exposure, outcome)
        assert panel.ids == ("rs2",)
        assert len(panel) <= min(exposure.n, outcome.n)

    def test_disjoint_ids(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        outcome = load_gwas(write(tmp_path, "o.tsv", "id\tbeta\tse\nrs9\t0.1\t0.05\n"))
        with pytest.raises(EmptyIntersectionError):
            harmonize(exposure, outcome)

    def test_swapped_alleles_flip_outcome_sign(self, tmp_path):
        exposure = load_gwas(
            write(tmp_path, "e.tsv", allele_file(["rs1\t0.1\t0.05\tA\tG\n"]))
        )
        outcome = load_gwas(
            write(tmp_path, "o.tsv", allele_file(["rs1\t0.2\t0.04\tG\tA\n"]))
        )
        panel = harmonize(exposure, outcome, HarmonizeMode.BY_ALLELE)
        assert panel.beta_y[0] == pytest.approx(-0.2)
        assert panel.se_y[0] == pytest.approx(0.04)

    def test_matching_alleles_unchanged(self, tmp_path):
        exposure = load_gwas(
            write(tmp_path, "e.tsv", allele_file(["rs1\t0.1\t0.05\tA\tG\n"]))
        )
        outcome = load_gwas(
            write(tmp_path, "o.tsv", allele_file(["rs1\t0.2\t0.04\tA\tG\n"]))
        )
        panel = harmonize(exposure, outcome, HarmonizeMode.BY_ALLELE)
        assert panel.beta_y[0] == pytest.approx(0.2)

    def test_palindromic_and_mismatched_dropped(self, tmp_path):
        exposure = load_gwas(
            write(
                tmp_path, "e.tsv",
                allele_file(
                    ["rs1\t0.1\t0.05\tA\tT\n", "rs2\t0.1\t0.05\tA\tG\n", "rs3\t0.1\t0.05\tA\tG\n"]
                ),
            )
        )
        outcome = load_gwas(
            write(
                tmp_path, "o.tsv",
                allele_file(
                    ["rs1\t0.2\t0.04\tA\tT\n", "rs2\t0.2\t0.04\tA\tC\n", "rs3\t0.2\t0.04\tA\tG\n"]
                ),
            )
        )
        panel = harmonize(exposure, outcome, HarmonizeMode.BY_ALLELE)
        assert panel.ids == ("rs3",)

    def test_by_allele_requires_allele_columns(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        outcome = load_gwas(write(tmp_path, "o.tsv", BASIC))
        with pytest.raises(InputError):
            harmonize(exposure, outcome, HarmonizeMode.BY_ALLELE)

    def test_never_alters_standard_errors(self, tmp_path):
        exposure = load_gwas(write(tmp_path, "e.tsv", BASIC))
        outcome = load_gwas(write(tmp_path, "o.tsv", BASIC))
        panel = harmonize(exposure, outcome)
        np.testing.assert_array_equal(panel.se_d, exposure.se)
        np.testing.assert_array_equal(panel.se_y, outcome.se)


class TestEmitReport:
    DOC = {
        "schema_version": 1,
        "command": "test",
        "value": 0.123456789012345678,
        "results": [
            {"direction": "dy", "p_value": 0.04999999999999123, "reject": True, "n": 3},
            {"direction": "yd", "p_value": None, "reject": False, "n": 0},
        ],
    }

    def test_json_byte_identical(self, tmp_path):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        emit_report(self.DOC, ReportFormat.JSON, p1)
        emit_report(self.DOC, ReportFormat.JSON, p2)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_json_rounds_to_twelve_significant_digits(self):
        text = format_document(self.DOC, ReportFormat.JSON)
        payload = json.loads(text)
        assert payload["value"] == 0.123456789012
        assert payload["schema_version"] == 1

    def test_json_key_order_fixed(self):
        text = format_document(self.DOC, ReportFormat.JSON)
        assert text.index('"schema_version"') < text.index('"command"') < text.index('"value"')

    def test_tsv_rows_and_flags(self):
        text = format_document(self.DOC, ReportFormat.TSV)
        lines = text.strip().split("\n")
        assert lines[0] == "direction\tp_value\treject\tn"
        assert lines[1] == "dy\t0.05\ttrue\t3"
        assert lines[2] == "yd\t\tfalse\t0"

    def test_non_finite_reals_become_null(self):
        text = format_document({"x": float("inf"), "results": []}, ReportFormat.JSON)
        assert json.loads(text)["x"] is None
