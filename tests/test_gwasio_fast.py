"""The fast parse of plain TSVs returns exactly what the strict reader returns, or declines.

``gwasio._fast_columns`` reads a file in one ``np.loadtxt`` pass; whatever it
does not decline must equal ``gwasio._strict_columns`` on the same file: floats
bit for bit (compared as ``uint64``, so ``-0.0`` and subnormals count), ids
and their key index, and each reader's allele codes must decode to the same
alleles. Every file, declined or not, must load (or fail, with the same
error type, line and message) as the strict reader alone loads it. Clean files
laid out like the benchmark's generated ones must never reach the strict
reader.
"""

import csv
import os
import sys
import tempfile
import threading
from itertools import islice, product
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bidirmr.gwasio as gwasio  # noqa: E402
from bidirmr.errors import GwasParseError  # noqa: E402
from bidirmr.gwasio import GwasFile, harmonize, load_float_columns, load_gwas  # noqa: E402

GWAS = (gwasio._REQUIRED_COLUMNS, gwasio._ALLELE_COLUMNS)


def write(tmp_path, text: str, name: str = "x.tsv") -> str:
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def strict(path, required, optional=()):
    try:
        return gwasio._strict_columns(path, required, optional, {})
    except GwasParseError as exc:
        return exc


def assert_same_columns(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, value in want.items():
        if name == "id":
            assert got[name].dtype == object and got[name].tolist() == value.tolist()
            assert all(type(variant) is str for variant in got[name].tolist())
        elif name == "index":
            # the ids' hashes in ascending order, and the rows in that order
            keys, order, shared, repeat = got[name]
            assert keys.tolist() == [hash(got["id"][k]) for k in order.tolist()]
            assert (keys[1:] >= keys[:-1]).all() and repeat is None
            for part, want in zip((keys, order, shared), value):
                assert part.tolist() == want.tolist()
        elif name == "alleles":
            # codes into each reader's own tuple of the file's distinct alleles
            alleles, *codes = got[name]
            assert len(set(alleles)) == len(alleles) and sorted(alleles) == sorted(value[0])
            for c, want in zip(codes, value[1:]):
                assert c.dtype == np.min_scalar_type(max(len(alleles) - 1, 0))
                assert [alleles[k] for k in c.tolist()] == [value[0][k] for k in want.tolist()]
        else:
            assert got[name].dtype == value.dtype == np.float64
            assert got[name].flags.c_contiguous and got[name].flags.owndata
            assert got[name].view(np.uint64).tolist() == value.view(np.uint64).tolist()


ALLELE_HEADER = "id\teffect_allele\tother_allele\tbeta\tse\n"


@pytest.mark.parametrize(
    "text",
    [
        ALLELE_HEADER + "rs1\tA\tC\t0.013173159703048614\t0.016527277488272884\n",
        # no final newline; no allele columns
        "id\tbeta\tse\nrs1\t0.1\t0.05\nrs2\t-0.2\t0.04",
        # lower-case, padded, long and non-ASCII alleles, indel symbols, an empty allele
        ALLELE_HEADER + "rs1\tacgtacg\t-\t-0\t5e-324\nrs2\tI\t\t4.9e-324\t1E5\n",
        ALLELE_HEADER + "rs1\t a\tC \t0.1\t0.05\nrs2\tacgtacgt\tACGTACGTACGTACGTACGT\t0.1\t0.05\n",
        ALLELE_HEADER + "rs1\tÄ\tß\t0.1\t0.05\nrs2\t<CN0>\ta\xa0\t0.1\t0.05\n",
        # padded ids and numbers; exponents, signs and bare points
        "id\tbeta\tse\n rs1 \t +1.5 \t.5\nrs2\t-2.5E2\t5.\n",
        # an empty unused field at either end of a row, the last row unterminated
        "p\tid\tbeta\tse\tq\n\trs1\t0.1\t0.05\t\n\trs2\t0.1\t0.05\t",
        # unused columns hold anything, long ids and non-ASCII ids are kept whole
        "id\tchr\tbeta\tse\tp\n" + "r" * 300 + "\tX\t0.1\t0.05\tNA\nrsé\t\t0.1\t0.05\tx y\n",
        # a BOM or a non-breaking space inside a data field is not stripped away
        "id\tbeta\tse\n\ufeffrs1\t0.1\t0.05\nrs\xa0\t\xa00.2\xa0\t0.05\n",
        "id\tbeta\tse\nrs1\t1e308\t2.2250738585072014e-308\n",
        # only \n ends a line: other line breaks of str.splitlines are kept in a field
        "id\tbeta\tse\nr\x85s1\t0.1\t0.05\nr\x0b\x0c\x1c\x1d\x1e\u2028\u2029s2\t0.1\t0.05\n",
        # csv knows no comments: a row that starts with "#" is data
        "id\tbeta\tse\nrs1\t0.1\t0.05\n#rs2\t0.1\t0.05\n",
    ],
)
def test_fast_parse_reads_plain_files_exactly(tmp_path, text):
    path = write(tmp_path, text)
    got = gwasio._fast_columns(path, *GWAS, {})
    assert got is not None
    assert_same_columns(got, strict(path, *GWAS))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "id\tbeta\tse\n",
        "id\tbeta\tse",
        '"id"\tbeta\tse\nrs1\t0.1\t0.05\n',
        "id\tbeta\tse\r\nrs1\t0.1\t0.05\r\n",
        "id\tbeta\tse\rrs1\t0.1\t0.05\r",
        "id\tbeta\tse\nrs1\x00\t0.1\t0.05\n",
        "id\tbeta\tse\n\nrs1\t0.1\t0.05\n",
        "id\tbeta\tse\nrs1\t0.1\t0.05\n\n",
        "id\tbeta\tse\nrs1\t0.1\t0.05\n  \n",
        "id\tbeta\tse\nrs1\t0.1\t0.05\n#rs2\n",
        "id\tbeta\tse\nrs1\t0.1\n",
        "id\tbeta\tse\nrs1\t0.1\t0.05\t\n",
        "id\tbeta\tse\nrs1\t1_0\t0.05\n",
        "id\tbeta\tse\nrs1\t١٢\t0.05\n",
        "id\tbeta\tse\nrs1\t0x1p3\t0.05\n",
        "id\tbeta\tse\nrs1\tinf\t0.05\n",
        "id\tbeta\tse\nrs1\tnan\t0.05\n",
        "id\tbeta\tse\nrs1\t1e999\t0.05\n",
        "id\tbeta\tse\nrs1\t0.1\t-0\n",
        "id\tbeta\tse\nrs1\t0.1\t0.05\nrs1 \t0.1\t0.05\n",
        "id\tbeta\tse\n \t0.1\t0.05\n",
        "\ufeffid\tbeta\tse\nrs1\t0.1\t0.05\n",
    ],
)
def test_fast_parse_declines(tmp_path, text):
    path = write(tmp_path, text)
    assert gwasio._fast_columns(path, *GWAS, {}) is None


def test_fast_parse_declines_a_line_past_the_field_limit(tmp_path):
    # csv refuses a field longer than its limit; the fast parse leaves any
    # line that long to it
    path = write(tmp_path, "id\tbeta\tse\n" + "r" * 41 + "\t0.1\t0.05\n")
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(40)
        assert gwasio._fast_columns(path, *GWAS, {}) is None
        with pytest.raises(GwasParseError, match="malformed TSV"):
            load_gwas(path)
    finally:
        csv.field_size_limit(limit)
    assert gwasio._fast_columns(path, *GWAS, {}) is not None


def test_undecodable_file_is_left_to_the_strict_reader(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(b"id\tbeta\tse\nrs1\t0.1\t0.05\nrs\xe92\t0.1\t0.05\n")
    assert gwasio._fast_columns(str(path), *GWAS, {}) is None
    with pytest.raises(GwasParseError, match="not UTF-8 text") as info:
        load_gwas(str(path))
    assert info.value.line == 3


def test_a_pipe_is_left_to_the_strict_reader(tmp_path):
    # the fast parse reads a file twice; a named pipe yields its data once
    path = tmp_path / "pipe.tsv"
    os.mkfifo(path)
    text = "id\tbeta\tse\nrs1\t0.1\t0.05\n"
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    result = []
    reader = threading.Thread(target=lambda: result.append(load_gwas(str(path))), daemon=True)
    writer.start()
    reader.start()
    reader.join(timeout=30)
    assert not reader.is_alive(), "load_gwas blocked on a named pipe"
    assert result[0].ids == ("rs1",)


def test_unreadable_path_is_left_to_the_strict_reader(tmp_path):
    path = str(tmp_path / "missing.tsv")
    assert gwasio._fast_columns(path, *GWAS, {}) is None
    with pytest.raises(FileNotFoundError):
        load_gwas(path)


def generated_like(tmp_path, n: int, seed: int) -> str:
    """A file laid out like the benchmark's generated summary files."""
    rng = np.random.default_rng(seed)
    pairs = np.array([("A", "C"), ("A", "G"), ("C", "T"), ("G", "T"), ("A", "T"), ("C", "G")])
    alleles = pairs[rng.integers(0, len(pairs), n)]
    se = 0.01 * np.exp(rng.normal(0.0, 0.2, n))
    beta = se * rng.standard_normal(n)
    lines = [ALLELE_HEADER.rstrip("\n")]
    lines.extend(
        f"rs{k}\t{a}\t{b}\t{x!r}\t{s!r}"
        for k, (a, b), x, s in zip(rng.permutation(n) * 7 + 1000, alleles.tolist(),
                                   beta.tolist(), se.tolist())
    )
    return write(tmp_path, "\n".join(lines) + "\n", f"generated_{seed}.tsv")


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_files_never_reach_the_strict_reader(tmp_path, seed):
    path = generated_like(tmp_path, 3000, seed)
    want = strict(path, *GWAS)
    with mock.patch.object(gwasio, "_strict_columns", wraps=gwasio._strict_columns) as reader:
        gwas = load_gwas(path)
        assert reader.call_count == 0
    assert_same_columns(
        {"id": gwas._ids, "beta": gwas.beta, "se": gwas.se, "index": gwas._index,
         "alleles": gwas._codes},
        want,
    )


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_each_file_is_keyed_once(tmp_path, newline):
    # the index each reader builds as its duplicate check is the one harmonize joins on;
    # the CRLF copies are read by the strict reader
    paths = [generated_like(tmp_path, 3000, seed) for seed in (6, 7)]
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data.replace(b"\n", newline.encode()))
    with mock.patch.object(gwasio, "_keys", wraps=gwasio._keys) as keys:
        studies = [load_gwas(path) for path in paths]
        assert keys.call_count == 2
        panel = harmonize(*studies, "allele")
        assert keys.call_count == 2
    assert len(panel) > 0


def held_arrays(gwas: GwasFile):
    """(slot, array) for each array a study holds, in a slot or a tuple in one."""
    for name in GwasFile.__slots__:
        value = getattr(gwas, name)
        for part in value if isinstance(value, tuple) else (value,):
            if isinstance(part, np.ndarray):
                yield name, part


def test_alleles_are_held_as_codes_until_read(tmp_path):
    path = generated_like(tmp_path, 3000, 8)
    gwas = load_gwas(path)
    harmonize(gwas, gwas, "allele")
    held = list(held_arrays(gwas))
    assert [name for name, a in held if a.dtype == object] == ["_ids"]
    assert [a.dtype for name, a in held if name == "_codes"] == [np.uint8] * 2
    alleles, *codes = strict(path, *GWAS)["alleles"]
    for column, c in zip((gwas.effect_allele, gwas.other_allele), codes):
        assert column.dtype == object and column.tolist() == [alleles[k] for k in c.tolist()]


def test_long_alleles_take_the_fast_parse(tmp_path):
    # an indel allele anywhere in the file does not send it to the strict reader
    path = generated_like(tmp_path, 3000, 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("rs1\tACGTACGTAC\tA\t0.1\t0.05\n")
    with mock.patch.object(gwasio, "_strict_columns", wraps=gwasio._strict_columns) as reader:
        gwas = load_gwas(path)
        assert reader.call_count == 0
    assert gwas.effect_allele[-1] == "ACGTACGTAC"
    assert allele_bytes(gwas.effect_allele) <= 16 * gwas.n


def allele_bytes(column: np.ndarray) -> int:
    """The memory an allele column takes: the array, and each string it holds once."""
    return column.nbytes + sum(map(sys.getsizeof, {id(a): a for a in column.tolist()}.values()))


def test_one_long_allele_does_not_widen_every_row(tmp_path):
    # an indel of thousands of bases costs its own length, not that length per row
    path = generated_like(tmp_path, 50_000, 4)
    long = "ACGT" * 2_500
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"rs2\t{long}\t{long.lower()}\t0.1\t0.05\n")
    gwas = load_gwas(path)
    assert gwas.n == 50_001
    assert gwas.effect_allele[-1] == gwas.other_allele[-1] == long
    for column in (gwas.effect_allele, gwas.other_allele):
        assert allele_bytes(column) <= 16 * gwas.n


def test_allele_codes_take_the_narrowest_type(tmp_path):
    # a file of SNP alleles has one byte per row per code column, from either reader or
    # from its allele arrays; 300 distinct alleles take two
    path = generated_like(tmp_path, 50_000, 5)
    gwas = load_gwas(path)
    codes = [gwas._codes[1:], strict(path, *GWAS)["alleles"][1:],
             gwasio.GwasFile(gwas.ids, gwas.beta, gwas.se,
                             gwas.effect_allele, gwas.other_allele)._codes[1:]]
    for c in (column for pair in codes for column in pair):
        assert c.dtype == np.uint8 and c.nbytes == 50_000
    many = ["".join(word) for word in islice(product("ACGT", repeat=5), 300)]
    lines = [f"rs{k}\t{a}\t{a}\t0.1\t0.05" for k, a in enumerate(many)]
    path = write(tmp_path, ALLELE_HEADER + "\n".join(lines) + "\n", "many.tsv")
    gwas = load_gwas(path)
    assert len(gwas._codes[0]) == 300
    for c in (*gwas._codes[1:], *strict(path, *GWAS)["alleles"][1:]):
        assert c.dtype == np.uint16
    assert [gwas._codes[0][k] for k in gwas._codes[1].tolist()] == many


def test_numeric_tables_take_the_fast_parse(tmp_path):
    path = write(tmp_path, "alpha_d\talpha_y\tse_d\tse_y\n0.1\t-0.2\t0.05\t0.04\n0\t-0\t1\t2\n")
    required = ("alpha_d", "alpha_y", "se_d", "se_y")
    with mock.patch.object(gwasio, "_strict_columns", wraps=gwasio._strict_columns) as reader:
        got = load_float_columns(path, required)
        assert reader.call_count == 0
    assert_same_columns(got, strict(path, required))


# Cells of every kind the two readers might split, strip or convert apart.
ID_CELLS = ["rs1", "rs2", " rs1", "rs1 ", "", " ", "rsé", "r" * 200, "\ufeffrs3", "rs\xa0",
            "rs\x85", "rs ", "rs\x0b", "rs\x0c", '"rs4"', 'rs"5', "rs\t6", "rs\n7",
            "rs\r8", "rs\x009"]
NUMBER_CELLS = ["0.1", "-2.5e-3", "1_0", " 1_000 ", "١٢", "inf", "-inf", "nan", "-0", "0",
                "5e-324", "2.225e-308", "0x1p3", "1e999", "", "NA", " 0.5 ", "\xa00.5", "+1.5",
                ".5", "5.", "1E5", "Infinity", "1e-320", '"0.2"', "0.2\n", "1 5"]
ALLELE_CELLS = ["A", "g", " c ", "AT", "", "acgtacg", "acgtacgt", "ACGTACGTA", "é", "-",
                "a\xa0", "<CN0>"]
LINES = ["", "  ", "#rs9\t0.1\t0.05\tA\tG", "rs9\t0.1", "rs9\t0.1\t0.05\tA\tG\tx"]
HEADERS = [
    "id\tbeta\tse\teffect_allele\tother_allele",
    "id\teffect_allele\tother_allele\tbeta\tse",
    "\ufeffid\tbeta\tse\teffect_allele\tother_allele",
    "id\tbeta\tse\tp",
    "beta\tid\tse",
]


@st.composite
def tables(draw):
    header = draw(st.sampled_from(HEADERS))
    names = header.lstrip("\ufeff").split("\t")
    n = draw(st.integers(min_value=0, max_value=6))
    lines = []
    for k in range(n):
        if draw(st.integers(0, 19)) == 0:
            lines.append(draw(st.sampled_from(LINES)))
            continue
        # mostly clean rows, so the fast parse is exercised as well as declined
        odd = draw(st.integers(0, 7)) == 0
        cells = []
        for name in names:
            if name == "id":
                cells.append(draw(st.sampled_from(ID_CELLS)) if odd else f"rs{k}")
            elif name in gwasio._ALLELE_COLUMNS:
                cells.append(draw(st.sampled_from(ALLELE_CELLS if odd else ["A", "c", "GT"])))
            elif name == "p":
                cells.append(draw(st.sampled_from(["x", "", "0.5"])))
            elif odd:
                cells.append(draw(st.sampled_from(NUMBER_CELLS)))
            else:
                clean = ["0.1", "3e-5", "1", "7.5e-310"] + ["-0.25", "-0"] * (name == "beta")
                cells.append(draw(st.sampled_from(clean)))
        lines.append("\t".join(cells))
    newline = draw(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]))
    end = draw(st.sampled_from(["", newline, newline, newline, newline * 2]))
    return newline.join([header, *lines]) + end


def both_ways(data: bytes, required, optional):
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        fast = gwasio._fast_columns(path, required, optional, {})
        want = strict(path, required, optional)
        try:
            got = gwasio._read_columns(path, required, optional)
        except GwasParseError as exc:
            got = exc
    finally:
        os.unlink(path)
    return fast, want, got


@settings(max_examples=500, deadline=None)
@given(tables(), st.sampled_from(["gwas", "numbers"]))
@example("id\tbeta\tse\teffect_allele\tother_allele\nrs0\t0.1\t0.1\tacgtacgt\tA\n", "gwas")
@example("id\tbeta\tse\nrs0\t0.1\t0.1\n\n", "gwas")
@example("beta\tid\tse\n1\tx\t2\n", "numbers")
def test_fast_parse_equals_the_strict_reader_or_declines(text, spec):
    required, optional = GWAS if spec == "gwas" else (("beta", "se"), ())
    fast, want, got = both_ways(text.encode("utf-8"), required, optional)
    if fast is not None:
        assert not isinstance(want, Exception), want
        assert_same_columns(fast, want)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert (got.line, str(got)) == (want.line, str(want))
    else:
        assert not isinstance(got, Exception), got
        assert_same_columns(got, want)
