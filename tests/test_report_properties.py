"""Emitted reports are deterministic and round-trip to the same rounded values.

Reals go out at 12 significant digits, non-finite ones as JSON ``null`` or
an empty TSV cell. Reading a JSON report back and writing it again gives
the same text, its TSV form carries the same values, and the same command
run twice writes the same bytes, for ``simulate`` and ``test`` alike
(including the ``--emit-snps`` and ``--emit-density`` tables).
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.cli import main  # noqa: E402
from bidirmr.gwasio import ReportFormat, format_document  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"

REALS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     0.1, 1.0 / 3.0, 123456789012.5, 1e-300]),
)
CELLS = st.one_of(
    REALS,
    st.integers(-(2**62), 2**62),
    st.booleans(),
    st.none(),
    st.text(alphabet="abcdxyz_-.0123456789", min_size=1, max_size=8),
)


def rounded(value):
    """What a report holds for ``value``: reals at 12 significant digits, non-finite as null."""
    if isinstance(value, float):
        return float(f"{value:.12g}") if math.isfinite(value) else None
    return value


def same(a, b) -> bool:
    # repr keeps the sign of zero and the type (1 and 1.0 differ)
    return repr(a) == repr(b)


def tsv_rows(text: str) -> tuple[list[str], list[list[str]]]:
    assert text.endswith("\n")
    lines = [line.split("\t") for line in text[:-1].split("\n")]
    assert all(len(line) == len(lines[0]) for line in lines)
    return lines[0], lines[1:]


def tsv_value_matches(cell: str, value) -> bool:
    """A TSV cell and the JSON value of the same report entry agree."""
    if value is None:
        return cell == ""
    if isinstance(value, bool):
        return cell == ("true" if value else "false")
    if isinstance(value, list):  # comma-joined, as the selected ids are
        parts = cell.split(",") if cell else []
        return len(parts) == len(value) and all(map(tsv_value_matches, parts, value))
    if isinstance(value, float):
        return float(cell) == value and cell == f"{value:.12g}"
    return cell == str(value)


@st.composite
def documents(draw):
    columns = draw(st.lists(st.text(alphabet="abcdef_", min_size=1, max_size=6),
                            min_size=1, max_size=6, unique=True))
    rows = [{c: draw(CELLS) for c in columns} for _ in range(draw(st.integers(1, 5)))]
    return {
        "schema_version": 1,
        "seed": draw(st.integers(0, 2**63 - 1)),
        "summary": draw(st.lists(REALS, max_size=4)),
        "results": rows,
    }


@settings(max_examples=200, deadline=None)
@given(documents())
def test_documents_round_trip_to_their_rounded_values(document):
    text = format_document(document, ReportFormat.JSON)
    assert format_document(copy.deepcopy(document), ReportFormat.JSON) == text
    parsed = json.loads(text)
    assert all(same(v, rounded(u)) for u, v in zip(document["summary"], parsed["summary"]))
    for row, back in zip(document["results"], parsed["results"]):
        assert list(back) == list(row)
        assert all(same(back[k], rounded(v)) for k, v in row.items())
    # rounding is idempotent: what was read back is written out unchanged
    assert format_document(parsed, ReportFormat.JSON) == text

    tsv = format_document(document, ReportFormat.TSV)
    assert format_document(parsed, ReportFormat.TSV) == tsv
    header, cells = tsv_rows(tsv)
    assert header == list(document["results"][0])
    for row, line in zip(parsed["results"], cells):
        assert all(tsv_value_matches(cell, row[k]) for k, cell in zip(header, line))


@st.composite
def invocations(draw):
    """Valid ``simulate`` or ``test`` argv, without the output options."""
    if draw(st.booleans()):
        argv = ["simulate", f"--synthetic={draw(st.sampled_from([10, 24]))}",
                f"--reps={draw(st.integers(1, 3))}",
                "--methods=" + ",".join(draw(st.lists(
                    st.sampled_from(["focused_ivw", "focused_median", "overall_ivw",
                                     "mr_median", "mr_egger"]),
                    min_size=1, max_size=5, unique=True)))]
        argv += draw(st.sampled_from([[], ["--beta-dy=0.3"], ["--grid=0:0,0.3:-0.2,0:0"]]))
        argv += draw(st.sampled_from([[], ["--enforce-separation=2.0"], ["--tau-f=inf"]]))
        argv += draw(st.sampled_from([[], ["--tau-s=1.5"]]))
        return argv, False
    estimator = draw(st.sampled_from(["ivw", "median", "overall-ivw", "mr-median", "mr-egger"]))
    argv = ["test", "--exposure", str(FIXTURES / "exposure_50.tsv"), "--outcome",
            str(FIXTURES / draw(st.sampled_from(["outcome_50.tsv", "outcome_flipped_50.tsv"]))),
            f"--estimator={estimator}",
            f"--direction={draw(st.sampled_from(['dy', 'yd', 'both', 'joint']))}",
            f"--mode={draw(st.sampled_from(['id', 'allele']))}"]
    return argv, estimator in ("ivw", "overall-ivw")


def run(argv: list[str], out_dir: str, fmt: str, tables: bool) -> dict[str, bytes]:
    """Run once; the bytes of every file written."""
    names = {"report": os.path.join(out_dir, "report")}
    extra = ["--format", fmt, "--out", names["report"]]
    if argv[0] == "test":
        names["snps"] = os.path.join(out_dir, "snps.tsv")
        extra += ["--emit-snps", names["snps"]]
        if tables:
            names["density"] = os.path.join(out_dir, "density.tsv")
            extra += ["--emit-density", names["density"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([*argv, "--seed=7", *extra]) == 0
    return {key: Path(path).read_bytes() for key, path in names.items()}


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_emitted_reports_are_deterministic_and_agree(invocation):
    argv, density = invocation
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "tsv"):
            for attempt in ("a", "b"):
                out_dir = os.path.join(tmp, fmt + attempt)
                os.mkdir(out_dir)
                outputs[fmt, attempt] = run(argv, out_dir, fmt, density)
    for fmt in ("json", "tsv"):
        assert outputs[fmt, "a"] == outputs[fmt, "b"]

    text = outputs["json", "a"]["report"].decode("utf-8")
    document = json.loads(text)
    assert format_document(document, ReportFormat.JSON) == text
    tsv = outputs["tsv", "a"]["report"].decode("utf-8")
    assert format_document(document, ReportFormat.TSV) == tsv
    header, cells = tsv_rows(tsv)
    for row, line in zip(document["results"], cells, strict=True):
        assert all(tsv_value_matches(cell, row[k]) for k, cell in zip(header, line, strict=True))

    # the per-SNP tables hold reals at 12 significant digits: read back, they print the same
    for key in ("snps", "density"):
        if key in outputs["json", "a"]:
            _, table = tsv_rows(outputs["json", "a"][key].decode("utf-8"))
            for cell in (c for line in table for c in line):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert f"{value:.12g}" == cell or cell.lstrip("-").isdigit()
