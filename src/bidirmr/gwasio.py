"""GWAS summary-statistics ingestion, harmonization, and report serialization.

Input files are UTF-8, tab-separated text with a header naming at least
``id``, ``beta`` and ``se`` (arbitrary file headers can be remapped onto
those names). They are parsed, and per-SNP tables are written, a fixed
number of rows at a time, each chunk held as NumPy columns.
Harmonization inner-joins two files on variant id, optionally reconciling
effect alleles: when the outcome file reports the swapped allele pair the
outcome beta changes sign, while palindromic (A/T, C/G) and
mismatched-allele variants are dropped, since without allele frequencies a
silent misorientation is worse than exclusion. Standard errors are never
altered.

Serialization is deterministic: fixed key order, reals rounded to 12
significant digits, a schema version field, and byte-identical output for
identical reports.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice, repeat
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateVariantError,
    EmptyIntersectionError,
    GwasParseError,
    InputError,
    NonPositiveSEError,
)
from .focusing import Panel

__all__ = [
    "ColumnTable",
    "GwasFile",
    "HarmonizeMode",
    "MaskedColumn",
    "ReportFormat",
    "SCHEMA_VERSION",
    "emit_report",
    "format_document",
    "harmonize",
    "load_float_columns",
    "load_gwas",
    "parse_col_map",
    "write_tsv_rows",
]

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1

_REQUIRED_COLUMNS = ("id", "beta", "se")
_ALLELE_COLUMNS = ("effect_allele", "other_allele")
# Rows parsed, and rows written, per chunk. A 200k-row file parsed faster in
# 8,192-row chunks than in 65,536-row ones.
_CHUNK_ROWS = 8_192
_WRITE_ROWS = 16_384


@dataclass(frozen=True, eq=False)
class GwasFile:
    """One study's parsed summary statistics, in file order.

    Allele columns are upper-cased string arrays, or None when the file has
    no allele columns.
    """

    ids: tuple[str, ...]
    beta: np.ndarray
    se: np.ndarray
    effect_allele: np.ndarray | None = None
    other_allele: np.ndarray | None = None

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def has_alleles(self) -> bool:
        return self.effect_allele is not None and self.other_allele is not None


def parse_col_map(spec: str) -> dict[str, str]:
    """Parse a ``FILECOL=CANONICAL`` comma list, e.g. ``"b=beta,rsid=id"``."""
    mapping: dict[str, str] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"column mapping {item!r} is not of the form FILECOL=CANONICAL")
        raw, canonical = (part.strip() for part in item.split("=", 1))
        if canonical not in _REQUIRED_COLUMNS + _ALLELE_COLUMNS:
            raise InputError(f"unknown canonical column {canonical!r} in column mapping")
        mapping[raw] = canonical
    return mapping


def load_gwas(path: str, col_map: Mapping[str, str] | None = None) -> GwasFile:
    """Parse one TSV of summary statistics with strict validation.

    ``col_map`` renames file headers onto the canonical names before the
    required-column check; a canonical column named twice is an error.
    Allele columns are honored only when both are present. The file must be
    UTF-8. Non-numeric, non-finite, or nonpositive-SE rows and duplicate ids
    fail with the physical line the offending row starts on. Rows are read
    and validated in chunks of ``_CHUNK_ROWS``, each turned into columns at
    once.
    """
    col_map = dict(col_map or {})
    try:
        with open(path, newline="", encoding="utf-8") as fh, _gc_paused():
            reader = csv.reader(fh, delimiter="\t")
            try:
                gwas = _read_columns(reader, col_map, path)
            except csv.Error as exc:
                raise GwasParseError(
                    f"malformed TSV ({exc})", path=path, line=reader.line_num
                ) from None
            except GwasParseError as exc:
                # rows were counted as records; a quoted field may hold a newline
                if exc.line is None:
                    raise
                line = _record_start_line(path, exc.line)
                raise type(exc)(exc.message, path=path, line=line) from None
    except UnicodeDecodeError as exc:
        raise GwasParseError(
            f"not UTF-8 text ({exc.reason})", path=path, line=_undecodable_line(path)
        ) from None
    logger.info("loaded %d variants from %s", gwas.n, path)
    return gwas


def load_float_columns(path: str, required: Sequence[str]) -> dict[str, np.ndarray]:
    """The named columns of a small UTF-8 TSV of numbers (seed effects, ground truths).

    Every row must have as many fields as the header and a finite number in
    each required column; a required column named twice is an error. Errors
    are :class:`GwasParseError` naming the physical line the offending record
    starts on (a quoted field may hold a newline).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter="\t")
            try:
                return _float_columns(reader, required, path)
            except csv.Error as exc:
                raise GwasParseError(
                    f"malformed TSV ({exc})", path=path, line=reader.line_num
                ) from None
    except UnicodeDecodeError as exc:
        raise GwasParseError(
            f"not UTF-8 text ({exc.reason})", path=path, line=_undecodable_line(path)
        ) from None


def _float_columns(reader, required: Sequence[str], path: str) -> dict[str, np.ndarray]:
    header = next(reader, None)
    if header is None:
        raise GwasParseError("file is empty", path=path)
    names = [h.strip() for h in header]
    missing = [c for c in required if c not in names]
    if missing:
        raise GwasParseError(f"missing required columns {missing}", path=path, line=1)
    repeated = [c for c in required if names.count(c) > 1]
    if repeated:
        raise GwasParseError(f"columns {repeated} appear more than once", path=path, line=1)
    pos = {c: names.index(c) for c in required}
    columns: dict[str, list[float]] = {c: [] for c in required}
    line = reader.line_num + 1
    for row in reader:
        if len(row) != len(names):
            raise GwasParseError(
                f"expected {len(names)} fields, got {len(row)}", path=path, line=line
            )
        for name in required:
            raw = row[pos[name]].strip()
            try:
                value = float(raw)
            except ValueError:
                raise GwasParseError(
                    f"column {name!r} has non-numeric value {raw!r}", path=path, line=line
                ) from None
            if not math.isfinite(value):
                raise GwasParseError(
                    f"column {name!r} has non-finite value {raw!r}", path=path, line=line
                )
            columns[name].append(value)
        line = reader.line_num + 1
    return {name: np.array(values, dtype=float) for name, values in columns.items()}


@contextmanager
def _gc_paused():
    # Parsing allocates a list per row and makes no reference cycles, so
    # cyclic collections while it runs only cost time (a fifth of it).
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_columns(reader, col_map: dict[str, str], path: str) -> GwasFile:
    header = next(reader, None)
    if header is None:
        raise GwasParseError("file is empty", path=path)
    names = [col_map.get(h.strip(), h.strip()) for h in header]
    missing = [c for c in _REQUIRED_COLUMNS if c not in names]
    if missing:
        raise GwasParseError(f"missing required columns {missing}", path=path, line=1)
    repeated = [c for c in _REQUIRED_COLUMNS + _ALLELE_COLUMNS if names.count(c) > 1]
    if repeated:
        raise GwasParseError(f"columns {repeated} appear more than once", path=path, line=1)
    pos = {c: names.index(c) for c in _REQUIRED_COLUMNS + _ALLELE_COLUMNS if c in names}
    with_alleles = all(c in pos for c in _ALLELE_COLUMNS)
    width = len(names)

    chunks = []
    first_line = 2
    while rows := list(islice(reader, _CHUNK_ROWS)):
        chunk = _chunk_columns(rows, width, pos, with_alleles)
        if chunk is None:
            ids = tuple(chain.from_iterable(c[0] for c in chunks))
            raise _duplicate_error(ids, path) or _first_row_error(
                rows, first_line, width, pos, set(ids), path
            )
        chunks.append(chunk)
        first_line += len(rows)
    ids = tuple(chain.from_iterable(c[0] for c in chunks))
    error = _duplicate_error(ids, path)
    if error is not None:
        raise error

    def column(k, empty):
        return np.concatenate([c[k] for c in chunks]) if chunks else empty

    return GwasFile(
        ids=ids,
        beta=column(1, np.empty(0)),
        se=column(2, np.empty(0)),
        effect_allele=column(3, np.empty(0, dtype=str)) if with_alleles else None,
        other_allele=column(4, np.empty(0, dtype=str)) if with_alleles else None,
    )


def _chunk_columns(rows: list[list[str]], width: int, pos: dict[str, int], with_alleles: bool):
    """``(ids, beta, se, effect_allele, other_allele)`` of a chunk of rows, or
    None if a row is invalid. Duplicate ids are left to :func:`_duplicate_error`."""
    if set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    ids = tuple(map(str.strip, columns[pos["id"]]))
    if not all(ids):
        return None
    try:
        # Converts each string with float(), as the per-row check does.
        beta = np.array(columns[pos["beta"]], dtype=float)
        se = np.array(columns[pos["se"]], dtype=float)
    except ValueError:
        return None
    if not (np.isfinite(beta).all() and np.isfinite(se).all() and (se > 0.0).all()):
        return None
    if not with_alleles:
        return ids, beta, se, None, None
    ea, oa = (
        np.array(list(map(str.upper, map(str.strip, columns[pos[name]]))), dtype=str)
        for name in _ALLELE_COLUMNS
    )
    return ids, beta, se, ea, oa


def _duplicate_error(ids: tuple[str, ...], path: str) -> DuplicateVariantError | None:
    """The first repeated id of rows that are otherwise valid, if any."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[str] = set()
    for line_no, variant in enumerate(ids, start=2):
        if variant in seen:
            return DuplicateVariantError(
                f"duplicate variant id {variant!r}", path=path, line=line_no
            )
        seen.add(variant)
    return None


def _first_row_error(rows, first_line, width, pos, seen, path) -> GwasParseError:
    """The error of the first invalid row of a chunk; ``seen`` holds earlier ids."""
    for line_no, row in enumerate(rows, start=first_line):
        error = _row_error(row, line_no, width, pos, seen, path)
        if error is not None:
            return error
    raise AssertionError("a chunk failed validation but none of its rows did")


def _row_error(row, line_no, width, pos, seen, path) -> GwasParseError | None:
    """Check one data row; adds its id to ``seen``."""
    if len(row) != width:
        return GwasParseError(f"expected {width} fields, got {len(row)}", path=path, line=line_no)
    variant = row[pos["id"]].strip()
    if not variant:
        return GwasParseError("empty variant id", path=path, line=line_no)
    if variant in seen:
        return DuplicateVariantError(f"duplicate variant id {variant!r}", path=path, line=line_no)
    seen.add(variant)
    for name in ("beta", "se"):
        raw = row[pos[name]].strip()
        try:
            value = float(raw)
        except ValueError:
            return GwasParseError(
                f"column {name!r} has non-numeric value {raw!r}", path=path, line=line_no
            )
        if not math.isfinite(value):
            return GwasParseError(
                f"column {name!r} has non-finite value {raw!r}", path=path, line=line_no
            )
    if value <= 0.0:  # the se, parsed last
        return NonPositiveSEError(
            f"standard error must be positive, got {value}", path=path, line=line_no
        )
    return None


def _record_start_line(path: str, record: int) -> int:
    """The physical line on which the ``record``-th record (1-based) of a file starts."""
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh, delimiter="\t")
        start = 1
        for _ in islice(reader, record - 1):
            start = reader.line_num + 1
    return start


def _undecodable_line(path: str) -> int | None:
    # A newline byte never occurs inside a UTF-8 sequence, so lines decode alone.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


class HarmonizeMode(str, Enum):
    BY_ID = "id"
    BY_ALLELE = "allele"


def _palindromic(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    return (
        ((a1 == "A") & (a2 == "T"))
        | ((a1 == "T") & (a2 == "A"))
        | ((a1 == "C") & (a2 == "G"))
        | ((a1 == "G") & (a2 == "C"))
    )


def harmonize(
    exposure: GwasFile, outcome: GwasFile, mode: HarmonizeMode = HarmonizeMode.BY_ID
) -> Panel:
    """Inner-join two studies into a panel, in exposure-file order.

    ``BY_ID`` joins ids verbatim. ``BY_ALLELE`` additionally reconciles
    allele orientation: identical pairs pass through, swapped pairs flip the
    outcome beta's sign, and palindromic or mismatched pairs are dropped
    (counts logged). Standard errors pass through untouched.
    """
    mode = HarmonizeMode(mode)
    if mode is HarmonizeMode.BY_ALLELE and not (exposure.has_alleles and outcome.has_alleles):
        raise InputError("allele harmonization requires allele columns in both files")

    outcome_pos = dict(zip(outcome.ids, range(outcome.n)))
    j = np.fromiter(
        map(outcome_pos.get, exposure.ids, repeat(-1)), dtype=np.intp, count=exposure.n
    )
    i = np.flatnonzero(j >= 0)
    j = j[i]
    flip = np.zeros(len(i), dtype=bool)
    if mode is HarmonizeMode.BY_ALLELE:
        exp_ea, exp_oa = exposure.effect_allele[i], exposure.other_allele[i]
        out_ea, out_oa = outcome.effect_allele[j], outcome.other_allele[j]
        palindromic = _palindromic(exp_ea, exp_oa) | _palindromic(out_ea, out_oa)
        same = (exp_ea == out_ea) & (exp_oa == out_oa)
        swapped = (exp_ea == out_oa) & (exp_oa == out_ea)
        mismatched = ~palindromic & ~same & ~swapped
        keep = ~palindromic & ~mismatched
        i, j, flip = i[keep], j[keep], (swapped & ~same)[keep]
        n_palindromic, n_mismatched = int(palindromic.sum()), int(mismatched.sum())
        if n_palindromic or n_mismatched:
            logger.info(
                "harmonization dropped %d palindromic and %d mismatched-allele variants",
                n_palindromic,
                n_mismatched,
            )
    if not len(i):
        raise EmptyIntersectionError("no variants shared between exposure and outcome files")
    beta_y = outcome.beta[j]
    return Panel.from_arrays(
        np.array(exposure.ids, dtype=object)[i],
        exposure.beta[i],
        exposure.se[i],
        np.where(flip, -beta_y, beta_y),
        outcome.se[j],
    )


class ReportFormat(str, Enum):
    JSON = "json"
    TSV = "tsv"


def _round_sig(value: float) -> float | None:
    # 12 significant digits; the shortest-roundtrip repr of the rounded
    # value is then platform-independent. Non-finite reals have no strict
    # JSON encoding and become null.
    if not math.isfinite(value):
        return None
    return float(f"{value:.12g}")


def _normalize(obj: Any) -> Any:
    if isinstance(obj, Enum):
        return _normalize(obj.value)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round_sig(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round_sig(float(obj))
    if isinstance(obj, np.ndarray):
        return [_normalize(v) for v in obj.tolist()]
    if isinstance(obj, Mapping):
        return {str(k): _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def _tsv_cell(value: Any) -> str:
    if isinstance(value, Enum):
        value = value.value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_tsv_cell(v) for v in value)
    return str(value)


def format_document(document: Mapping[str, Any], fmt: ReportFormat = ReportFormat.JSON) -> str:
    """Render a report document deterministically as JSON or TSV text.

    The document is a mapping whose ``results`` key (when TSV is requested)
    holds a list of homogeneous row mappings; TSV output is one row per
    entry with columns in first-row key order.
    """
    fmt = ReportFormat(fmt)
    normalized = _normalize(dict(document))
    if fmt is ReportFormat.JSON:
        return json.dumps(normalized, indent=2, allow_nan=False) + "\n"

    rows = normalized.get("results")
    if not isinstance(rows, list) or not rows:
        raise InputError("TSV output needs a nonempty 'results' list of row mappings")
    columns = list(rows[0].keys())
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(_tsv_cell(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def emit_report(
    document: Mapping[str, Any], fmt: ReportFormat = ReportFormat.JSON, path: str | None = None
) -> str:
    """Serialize a report document; write it to ``path`` when given.

    Returns the rendered text either way. Identical documents yield
    byte-identical output.
    """
    text = format_document(document, fmt)
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


class MaskedColumn(NamedTuple):
    """A table column whose cells are written empty where ``missing`` is true."""

    values: np.ndarray
    missing: np.ndarray


class ColumnTable:
    """Equal-length columns of a TSV body, in header order; ``len`` is the row count.

    A column is a NumPy array (booleans are written ``true``/``false``,
    reals to 12 significant digits, anything else with ``str``), a sequence
    of strings, or a :class:`MaskedColumn`.
    """

    __slots__ = ("columns", "n_rows")

    def __init__(self, columns: Sequence[Any]):
        lengths = {len(c.values if isinstance(c, MaskedColumn) else c) for c in columns}
        if len(lengths) != 1:
            raise InputError("a table needs at least one column, all of equal length")
        self.columns = tuple(columns)
        self.n_rows = lengths.pop()

    def __len__(self) -> int:
        return self.n_rows


_BOOL_CELLS = ("false", "true")


def _chunk_cells(column: Any, start: int, stop: int) -> tuple[str, list]:
    """Rows ``start:stop`` of a column: a %-format spec and the values it formats."""
    if isinstance(column, MaskedColumn):
        spec, cells = _chunk_cells(column.values, start, stop)
        missing = np.flatnonzero(column.missing[start:stop]).tolist()
        if missing:
            cells = [spec % v for v in cells]
            spec = "%s"
            for k in missing:
                cells[k] = ""
        return spec, cells
    if not isinstance(column, np.ndarray):
        return "%s", column[start:stop]
    values = column[start:stop].tolist()
    if column.dtype == bool:
        return "%s", [_BOOL_CELLS[v] for v in values]
    if column.dtype.kind == "f":
        return "%.12g", values
    return "%s", values


def write_tsv_rows(path: str, columns: Sequence[str], rows: ColumnTable) -> None:
    """Write a plain TSV with the given header and the table's rows.

    Rows are formatted and written ``_WRITE_ROWS`` at a time, each with one
    %-format, so no more than that many rows exist as text at once.
    """
    if len(columns) != len(rows.columns):
        raise InputError(f"{len(columns)} column names for {len(rows.columns)} columns")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(columns) + "\n")
        for start in range(0, len(rows), _WRITE_ROWS):
            stop = min(start + _WRITE_ROWS, len(rows))
            specs, cells = zip(*(_chunk_cells(c, start, stop) for c in rows.columns))
            template = "\t".join(specs) + "\n"
            fh.write("".join(map(template.__mod__, zip(*cells))))
