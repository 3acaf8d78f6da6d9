"""GWAS summary-statistics ingestion, harmonization, and report serialization.

Input files are UTF-8, tab-separated text with a header. One parser reads
them all: GWAS files, whose header names at least ``id``, ``beta`` and
``se`` (arbitrary file headers can be remapped onto those names), and the
numeric seed-effect and ground-truth tables of the simulator and the
diagnostics. A plain file whose every row is valid is parsed in one
``np.loadtxt`` pass: a regular file (not a pipe), UTF-8 with no quote
character, carriage return or NUL byte, no blank line and no line longer
than ``csv``'s field limit; alleles of any length or script take it. Any
other file, such as one with quoted fields, CRLF line ends, a blank or
whitespace-only line, a number written ``1_000`` or in non-ASCII digits,
or any invalid row, goes to the strict reader: ``csv`` records a fixed
number of rows at a time, each chunk held as NumPy columns. The two differ
only in how they split a file into fields: one function turns the fields
into columns for both, under one set of rules. They give the same columns,
floats bit for bit, and the same errors, since the fast parse returns only
what the strict reader would and leaves every error to it; an error names
the line its record starts on. Per-SNP tables are written a fixed number of
rows at a time.
Harmonization inner-joins two files on variant id, optionally reconciling
effect alleles: when the outcome file reports the swapped allele pair the
outcome beta changes sign, while palindromic (A/T, C/G) and
mismatched-allele variants are dropped, since without allele frequencies a
silent misorientation is worse than exclusion. Standard errors are never
altered. Ids are joined on sorted integer keys (their hashes), sorted once
per file by its reader as its check for repeated ids, every match confirmed
by comparing the ids themselves, and alleles are compared as integer codes;
an id repeated within either file is refused.

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
import os
from contextlib import contextmanager
from enum import Enum
from itertools import islice
from typing import Any, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DuplicateVariantError,
    EmptyIntersectionError,
    GwasParseError,
    InputError,
    NonPositiveSEError,
    _refused,
    _vectors,
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

SCHEMA_VERSION = 2

_REQUIRED_COLUMNS = ("id", "beta", "se")
_ALLELE_COLUMNS = ("effect_allele", "other_allele")
# Columns of standard errors, which must be positive, in any file read.
_SE_COLUMNS = ("se", "se_d", "se_y")
# Rows parsed, and rows written, per chunk. A 200k-row file parsed faster in
# 8,192-row chunks than in 65,536-row ones.
_CHUNK_ROWS = 8_192
_WRITE_ROWS = 16_384


class GwasFile:
    """One study's summary statistics, in file order.

    A study built by hand has its fields checked: ``beta`` finite and ``se``
    positive, as many as ``ids`` (taken as strings), and both allele columns
    or neither, read as :func:`load_gwas` reads them (stripped, upper-cased).
    The ids are kept once, as a read-only object array (``ids`` builds their
    tuple when read), and the alleles only as codes (``_codes``: the distinct
    alleles, and each column's codes into them in the narrowest unsigned
    type); ``effect_allele`` and ``other_allele`` build their object arrays
    when read. The ids' key index (:func:`_id_index`) is built once: by the
    reader, as its check for repeated ids, or on a hand-built study's first
    harmonization.
    """

    __slots__ = ("_ids", "beta", "se", "_codes", "_index")

    def __init__(self, ids, beta, se, effect_allele=None, other_allele=None):
        try:
            ids = np.fromiter(map(str, ids), object)
        except TypeError:
            raise _refused("ids", "a sequence of variant ids", ids) from None
        _vectors(self, ids.size, ("se",), least=0, beta=beta, se=se)
        columns: dict[str, np.ndarray] = {}
        alleles: dict[str, int] = {}
        for name, column in zip(_ALLELE_COLUMNS, (effect_allele, other_allele)):
            if effect_allele is other_allele is None:
                break
            try:
                values = list(map(str, column))
            except TypeError:
                raise _refused(name, "a sequence of alleles", column) from None
            if len(values) != ids.size:
                raise InputError(f"{name} must have length {ids.size}, got {len(values)}")
            columns[name] = _allele_codes(values, alleles)
        self._fill(ids, _allele_columns(columns, alleles).get("alleles"), None)

    @classmethod
    def _of_columns(cls, columns: dict) -> GwasFile:
        """The study of the columns :func:`_read_columns` read and checked, with their index."""
        gwas = cls.__new__(cls)
        for name in ("beta", "se"):
            columns[name].setflags(write=False)
            object.__setattr__(gwas, name, columns[name])
        gwas._fill(columns["id"], columns.get("alleles"), columns["index"])
        return gwas

    def _fill(self, ids: np.ndarray, codes: tuple | None, index: tuple | None) -> None:
        ids.setflags(write=False)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_codes", codes)
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("GwasFile is immutable")

    @property
    def ids(self) -> tuple[str, ...]:
        """The variant ids, in file order."""
        return tuple(self._ids.tolist())

    @property
    def n(self) -> int:
        return self._ids.size

    @property
    def has_alleles(self) -> bool:
        return self._codes is not None

    @property
    def effect_allele(self) -> np.ndarray | None:
        return self._alleles(1)

    @property
    def other_allele(self) -> np.ndarray | None:
        return self._alleles(2)

    def _alleles(self, column: int) -> np.ndarray | None:
        # one string per distinct allele, however long, shared by the rows
        if self._codes is None:
            return None
        return np.array(self._codes[0], dtype=object)[self._codes[column]]

    def _checked_index(self, role: str) -> tuple:
        """The ids' key index, built on first use; a repeated id is refused, naming ``role``."""
        if self._index is None:
            object.__setattr__(self, "_index", _id_index(self._ids))
        repeat = self._index[3]
        if repeat is not None:
            variant = self._ids[repeat]
            raise DuplicateVariantError(f"duplicate variant id {variant!r} in the {role} study")
        return self._index


def parse_col_map(spec: str) -> dict[str, str]:
    """Parse a ``FILECOL=CANONICAL`` comma list, e.g. ``"b=beta,rsid=id"``; a file column
    mapped twice is an error."""
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
        if raw in mapping:
            raise InputError(f"file column {raw!r} is mapped more than once in column mapping")
        mapping[raw] = canonical
    return mapping


def load_gwas(path: str, col_map: Mapping[str, str] | None = None) -> GwasFile:
    """Parse one TSV of summary statistics with strict validation.

    ``col_map`` renames file headers onto the canonical names before the
    required-column check; a canonical column named twice is an error.
    Allele columns are honored only when both are present. The file must be
    UTF-8. Non-numeric, non-finite, or nonpositive-SE rows and empty or
    duplicate ids fail with the physical line the offending row starts on.
    """
    gwas = GwasFile._of_columns(_read_columns(path, _REQUIRED_COLUMNS, _ALLELE_COLUMNS, col_map))
    logger.info("loaded %d variants from %s", gwas.n, path)
    return gwas


def load_float_columns(path: str, required: Sequence[str]) -> dict[str, np.ndarray]:
    """The named columns of a UTF-8 TSV of numbers (seed effects, ground truths).

    Every row must have as many fields as the header and a finite number in
    each required column, positive in ``se_d`` and ``se_y``; a required
    column named twice is an error. The file is read as :func:`load_gwas`
    reads one, and fails the same way.
    """
    return _read_columns(path, tuple(required))


def _read_columns(path: str, required, optional=(), col_map=None) -> dict[str, Any]:
    """The required columns of a UTF-8 TSV, and the optional ones if all are present.

    ``id`` is read as stripped, nonempty, unique strings (an object array,
    with its key index as ``index``: see :func:`_duplicate_error`), the allele
    columns as codes (see :func:`_allele_columns`), a standard-error column
    (``se``, ``se_d``, ``se_y``) as positive floats and any other column as
    finite floats, all by :func:`_columns`. A plain file is read by
    :func:`_fast_columns`, which gives exactly what :func:`_strict_columns`
    gives or declines the file; a declined file, and every invalid one, is read
    by :func:`_strict_columns`, whose errors name its line.
    """
    col_map = col_map or {}
    with _gc_paused():
        columns = _fast_columns(path, required, optional, col_map)
        if columns is None:
            columns = _strict_columns(path, required, optional, col_map)
    return columns


def _strict_columns(path: str, required, optional, col_map: dict[str, str]) -> dict[str, Any]:
    """:func:`_read_columns` for any file, with ``csv``.

    Rows are read and validated in chunks of ``_CHUNK_ROWS``, each turned
    into columns at once; only a chunk that fails is checked row by row.
    Errors are :class:`GwasParseError` naming the physical line the
    offending record starts on (a quoted field may hold a newline).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter="\t")
            try:
                return _parse_columns(reader, required, optional, col_map, path)
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


# Bytes read per step when a file is scanned before the fast parse.
_SCAN_BYTES = 1 << 20
_FAST_DTYPES = dict.fromkeys(("id",) + _ALLELE_COLUMNS, object)


def _fast_columns(path: str, required, optional, col_map: dict[str, str]) -> dict | None:
    """:func:`_read_columns` of a plain file in one ``np.loadtxt`` pass, or None.

    A file is declined (None) unless it is a regular UTF-8 file without
    quotes, carriage returns or NUL, with at least one data row, no blank
    first row and no line longer than ``csv``'s field limit, and unless
    every row is valid. Within those bounds ``csv`` splits lines exactly at
    ``\\n`` and fields at tabs, as ``loadtxt`` does; ``loadtxt`` converts a
    number with the CPython routine ``float`` uses, so it gives ``float``'s
    bits or fails; and a row it drops (a blank line) is caught by counting
    rows. Ids and alleles are read whole, as Python strings, and pass
    through the strict reader's own rules. The file is read twice, to scan
    and to parse, and never held whole.
    """
    if not os.path.isfile(path):  # a pipe can be read only once, by the strict reader
        return None
    try:
        with open(path, "rb") as fh:
            n_lines = _plain_lines(fh)
            if n_lines is None:
                return None
            fh.seek(0)
            header = fh.readline().decode("utf-8").split("\t")
            # no data row, or a blank first one: loadtxt would warn that it read nothing
            if fh.peek(1)[:1] in (b"", b"\n"):
                return None
            pos, width = _header_positions(header, required, optional, col_map, path)
            kinds = {k: _FAST_DTYPES.get(name, "f8") for name, k in pos.items()}
            # a column that is not read is cut to its first character
            dtype = [(f"f{k}", kinds.get(k, "U1")) for k in range(width)]
            # loadtxt decodes line by line, so undecodable bytes fail as ValueError
            table = np.loadtxt(fh, dtype=dtype, delimiter="\t", comments=None,
                               quotechar=None, ndmin=1, encoding="utf-8")
    except (OSError, ValueError, GwasParseError):
        return None
    if len(table) != n_lines - 1:
        return None
    # the builder takes one column at a time, so one list of strings exists at once
    alleles: dict[str, int] = {}
    columns = _columns(
        ((name, table[f"f{k}"].tolist() if kinds[k] is object else table[f"f{k}"])
         for name, k in pos.items()),
        alleles,
    )
    del table  # the columns are copies; the table goes before the ids are indexed
    if columns is None or _duplicate_error(columns, path) is not None:
        return None
    return _allele_columns(columns, alleles)


def _plain_lines(fh) -> int | None:
    """The number of lines of binary file ``fh``, read to its end, or None if it
    holds a quote, carriage return or NUL byte or a line as long as ``csv``'s
    field limit. The file is read ``_SCAN_BYTES`` at a time."""
    limit = csv.field_size_limit()
    n_breaks = 0
    last = -1  # offset of the last newline from the start of the next step
    while step := fh.read(_SCAN_BYTES):
        if b'"' in step or b"\r" in step or b"\0" in step:
            return None
        breaks = np.flatnonzero(np.frombuffer(step, np.uint8) == ord("\n"))
        if len(breaks):
            if np.diff(breaks, prepend=last).max() > limit:
                return None
            last = int(breaks[-1])
            n_breaks += len(breaks)
        last -= len(step)
    if -last > limit:
        return None
    return n_breaks + (last < -1)  # the last line may lack its newline


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


def _parse_columns(reader, required, optional, col_map: dict[str, str], path: str) -> dict:
    header = next(reader, None)
    if header is None:
        raise GwasParseError("file is empty", path=path)
    pos, width = _header_positions(header, required, optional, col_map, path)

    alleles: dict[str, int] = {}
    chunks = [_columns(((name, ()) for name in pos), alleles)]  # typed, for the empty file
    first_line = 2
    while rows := list(islice(reader, _CHUNK_ROWS)):
        chunk = None
        if set(map(len, rows)) == {width}:
            fields = list(zip(*rows))
            chunk = _columns(((name, fields[k]) for name, k in pos.items()), alleles)
        if chunk is None:
            ids = np.concatenate([c.get("id", ()) for c in chunks])
            raise _duplicate_error({"id": ids}, path) or _first_row_error(
                rows, first_line, width, pos, set(ids), path
            )
        chunks.append(chunk)
        first_line += len(rows)
    columns = {name: np.concatenate([c[name] for c in chunks]) for name in pos}
    error = _duplicate_error(columns, path)
    if error is not None:
        raise error
    return _allele_columns(columns, alleles)


def _header_positions(header, required, optional, col_map, path) -> tuple[dict[str, int], int]:
    """The position of each column read, by canonical name, and the number of columns."""
    names = [col_map.get(h.strip(), h.strip()) for h in header]
    missing = [c for c in required if c not in names]
    if missing:
        raise GwasParseError(f"missing required columns {missing}", path=path, line=1)
    repeated = [c for c in required + optional if names.count(c) > 1]
    if repeated:
        raise GwasParseError(f"columns {repeated} appear more than once", path=path, line=1)
    wanted = required + optional if all(c in names for c in optional) else required
    return {c: names.index(c) for c in wanted}, len(names)


def _columns(fields, alleles: dict[str, int]) -> dict | None:
    """The columns that :func:`_read_columns` reads, from ``(name, raw fields)``
    pairs, or None if a field is invalid. The raw fields are strings, or a float
    column of the fast parse's table. Ids are stripped and nonempty strings in an
    object array, alleles are codes into ``alleles`` (:func:`_allele_codes`), and
    numbers are finite, and positive in a standard-error column; :func:`_row_error`
    says which rule a row breaks. Duplicate ids are left to :func:`_duplicate_error`."""
    columns: dict[str, Any] = {}
    for name, raw in fields:
        if name == "id":
            columns[name] = ids = np.fromiter(map(str.strip, raw), object, len(raw))
            if not all(ids):
                return None
        elif name in _ALLELE_COLUMNS:
            columns[name] = _allele_codes(raw, alleles)
        else:
            try:
                # Converts each string with float(), as _row_error does; copies a float column.
                values = np.array(raw, dtype=float)
            except ValueError:
                return None
            if not np.isfinite(values).all() or (name in _SE_COLUMNS and not (values > 0.0).all()):
                return None
            columns[name] = values
    return columns


def _allele_codes(raw: Sequence[str], alleles: dict[str, int]) -> np.ndarray:
    """The code of each stripped, upper-cased allele in ``alleles``, which gains
    the new ones, numbered in order. Each distinct allele is converted once and
    the rest are looked up, so a column of few distinct alleles makes no new
    strings and costs one dict lookup per row."""
    index = dict.fromkeys(raw)
    for allele in index:
        index[allele] = alleles.setdefault(allele.strip().upper(), len(alleles))
    return np.fromiter(map(index.__getitem__, raw), np.intp, len(raw))


def _allele_columns(columns: dict, alleles: dict[str, int]) -> dict:
    """``columns`` with their allele columns' codes into ``alleles``, if any, moved
    into one entry ``columns["alleles"]``: ``(alleles, effect codes, other
    codes)``, as :class:`GwasFile` keeps them, each column's codes in the
    narrowest type that holds them (:func:`_narrowed`)."""
    if _ALLELE_COLUMNS[0] in columns:
        codes = [_narrowed(columns.pop(name), len(alleles)) for name in _ALLELE_COLUMNS]
        columns["alleles"] = (tuple(alleles), *codes)
    return columns


def _narrowed(codes: np.ndarray, n_alleles: int) -> np.ndarray:
    """Codes into ``n_alleles`` alleles in the narrowest unsigned type that holds them:
    one byte per code for a file of SNP alleles, two past 256 alleles."""
    return codes.astype(np.min_scalar_type(max(n_alleles - 1, 0)))


def _duplicate_error(columns: dict, path: str) -> DuplicateVariantError | None:
    """Index the ids of rows that are otherwise valid, if ``columns`` has them, into
    ``columns["index"]`` (:func:`_id_index`); the error of the first repeated id,
    naming its line, if any."""
    if "id" not in columns:
        return None
    ids = columns["id"]
    columns["index"] = _id_index(ids)
    row = columns["index"][3]
    if row is None:
        return None
    return DuplicateVariantError(f"duplicate variant id {ids[row]!r}", path=path, line=row + 2)


def _first_row_error(rows, first_line, width, pos, seen, path) -> GwasParseError:
    """The error of the first invalid row of a chunk; ``seen`` holds earlier ids."""
    for line_no, row in enumerate(rows, start=first_line):
        error = _row_error(row, line_no, width, pos, seen, path)
        if error is not None:
            return error
    raise AssertionError("a chunk failed validation but none of its rows did")


def _row_error(row, line_no, width, pos, seen, path) -> GwasParseError | None:
    """Check one data row as :func:`_parse_columns` does; adds its id to ``seen``."""
    if len(row) != width:
        return GwasParseError(f"expected {width} fields, got {len(row)}", path=path, line=line_no)
    if "id" in pos:
        variant = row[pos["id"]].strip()
        if not variant:
            return GwasParseError("empty variant id", path=path, line=line_no)
        if variant in seen:
            return DuplicateVariantError(
                f"duplicate variant id {variant!r}", path=path, line=line_no
            )
        seen.add(variant)
    for name, k in pos.items():
        if name == "id" or name in _ALLELE_COLUMNS:
            continue
        raw = row[k].strip()
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
        if name in _SE_COLUMNS and value <= 0.0:
            what = "standard error" if name == "se" else f"standard error {name!r}"
            return NonPositiveSEError(f"{what} must be positive, got {value}", path=path, line=line_no)
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


# The bases of a palindromic pair (A/T or C/G) sum to zero; any other allele is 0.
_BASES = {"A": 1, "T": -1, "C": 2, "G": -2}


def _palindromic(alleles: tuple, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Where the allele pair of codes ``a1``, ``a2`` into ``alleles`` is A/T, T/A, C/G or G/C."""
    bases = np.array([_BASES.get(allele, 0) for allele in alleles], dtype=np.int8)
    b1 = bases[a1]
    return (b1 != 0) & (b1 == -bases[a2])


def _keys(ids: np.ndarray) -> np.ndarray:
    """An int64 key per id, its ``hash``, which a ``str`` computes once and keeps.
    Equal ids have equal keys; distinct ids may share one."""
    return np.fromiter(map(hash, ids), np.int64, len(ids))


def _id_index(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, int | None]:
    """``(keys, order, shared, repeat)``: the ids' :func:`_keys` in ascending order,
    the rows in that order, the positions in it of every key that more than one row
    has, and the first row whose id repeats an earlier row's, or None."""
    keys = _keys(ids)
    order = np.argsort(keys)
    keys = keys[order]
    repeats = np.flatnonzero(keys[1:] == keys[:-1])
    shared = np.union1d(repeats, repeats + 1)
    seen = set()
    for row in np.sort(order[shared]).tolist():  # an id and its repeats share a key
        if ids[row] in seen:
            return keys, order, shared, row
        seen.add(ids[row])
    return keys, order, shared, None


def _join(exposure: GwasFile, outcome: GwasFile):
    """Rows ``(i, j)`` of the exposure and outcome ids that are equal, in exposure order.

    Each study's ids are indexed by sorted keys (:func:`_id_index`, built once per
    study) and the exposure's are looked up in the outcome's with ``searchsorted``,
    in key order. Each pair of equal keys is confirmed by comparing the ids. An
    exposure id whose key several outcome ids share is looked up among just those
    ids, so the join stays exact, and linear in the rows whose keys collide.
    """
    exp_keys, exp_order, _, _ = exposure._checked_index("exposure")
    out_keys, out_order, shared, _ = outcome._checked_index("outcome")
    if not len(out_keys):
        return np.empty(0, np.intp), np.empty(0, np.intp)
    at = np.searchsorted(out_keys, exp_keys).clip(max=len(out_keys) - 1)
    probed = np.flatnonzero(out_keys[at] == exp_keys)
    i, at = exp_order[probed], at[probed]
    j = out_order[at]
    if len(shared):
        rows = {outcome._ids[r]: r for r in out_order[shared].tolist()}
        ambiguous = np.isin(at, shared)  # ``at`` is the first position of its key
        j[ambiguous] = [rows.get(exposure._ids[r], -1) for r in i[ambiguous].tolist()]
        i, j = i[j >= 0], j[j >= 0]
    match = np.full(exposure.n, -1, dtype=np.intp)
    match[i] = j
    i = np.flatnonzero(match >= 0)
    j = match[i]
    same = exposure._ids[i] == outcome._ids[j]  # in exposure order: the ids are read in turn
    return i[same], j[same]


def harmonize(
    exposure: GwasFile, outcome: GwasFile, mode: HarmonizeMode = HarmonizeMode.BY_ID
) -> Panel:
    """Inner-join two studies into a panel, in exposure-file order.

    ``BY_ID`` joins ids verbatim. ``BY_ALLELE`` additionally reconciles
    allele orientation: identical pairs pass through, swapped pairs flip the
    outcome beta's sign, and palindromic or mismatched pairs are dropped
    (counts logged). Standard errors pass through untouched. An id repeated
    within either study is a :class:`DuplicateVariantError`. Ids are matched
    on their hashes and confirmed by comparison, so no result depends on the
    hash.
    """
    mode = HarmonizeMode(mode)
    if mode is HarmonizeMode.BY_ALLELE and not (exposure.has_alleles and outcome.has_alleles):
        raise InputError("allele harmonization requires allele columns in both files")

    i, j = _join(exposure, outcome)
    flip = np.zeros(len(i), dtype=bool)
    if mode is HarmonizeMode.BY_ALLELE:
        exp_alleles, exp_ea, exp_oa = exposure._codes
        out_alleles, out_ea, out_oa = outcome._codes
        exp_ea, exp_oa, out_ea, out_oa = exp_ea[i], exp_oa[i], out_ea[j], out_oa[j]
        palindromic = _palindromic(exp_alleles, exp_ea, exp_oa) | _palindromic(
            out_alleles, out_ea, out_oa
        )
        # the exposure's codes as codes into the outcome's alleles, -1 for one it lacks
        index = {allele: k for k, allele in enumerate(out_alleles)}
        to_outcome = np.array([index.get(allele, -1) for allele in exp_alleles], dtype=np.intp)
        exp_ea, exp_oa = to_outcome[exp_ea], to_outcome[exp_oa]
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
    return Panel._of_unique_ids(
        exposure._ids[i],
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


# A boolean column's cells, taken by its values as uint8.
_BOOL_CELLS = np.array(["false", "true"], dtype=object)


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
    if column.dtype == bool:
        return "%s", _BOOL_CELLS.take(column[start:stop].view(np.uint8)).tolist()
    values = column[start:stop].tolist()
    return ("%.12g" if column.dtype.kind == "f" else "%s"), values


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
