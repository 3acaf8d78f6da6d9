"""Property tests of the chunked TSV loader and of array harmonization.

Arbitrary bytes may only fail as :class:`InputError`; and on tables built
from valid and invalid cells, the chunked loader returns exactly what a
straightforward row-by-row reading returns, or fails with the same error
class, message and line, whatever the chunk size. Harmonization matches a
row-by-row join, and in allele mode does not depend on which allele the
outcome file reports as the effect allele.
"""

import csv
import logging
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import bidirmr.gwasio as gwasio  # noqa: E402
from bidirmr.errors import (  # noqa: E402
    DuplicateVariantError,
    EmptyIntersectionError,
    GwasParseError,
    InputError,
    NonPositiveSEError,
)
from bidirmr.gwasio import GwasFile, HarmonizeMode, harmonize, load_gwas  # noqa: E402


def load_bytes(data: bytes):
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        return load_gwas(path)
    finally:
        os.unlink(path)


def reference_load(path):
    """Row-by-row reading of a file with the canonical header names; errors
    name the physical line their row starts on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter="\t")
        names = [h.strip() for h in next(reader)]
        pos = {name: names.index(name) for name in names}
        with_alleles = "effect_allele" in pos and "other_allele" in pos
        ids, beta, se, ea, oa, seen = [], [], [], [], [], set()
        line = reader.line_num + 1
        for row in reader:
            if len(row) != len(names):
                raise GwasParseError(f"expected {len(names)} fields, got {len(row)}", path, line)
            variant = row[pos["id"]].strip()
            if not variant:
                raise GwasParseError("empty variant id", path, line)
            if variant in seen:
                raise DuplicateVariantError(f"duplicate variant id {variant!r}", path, line)
            seen.add(variant)
            values = {}
            for name in ("beta", "se"):
                raw = row[pos[name]].strip()
                try:
                    values[name] = float(raw)
                except ValueError:
                    raise GwasParseError(
                        f"column {name!r} has non-numeric value {raw!r}", path, line
                    ) from None
                if not math.isfinite(values[name]):
                    raise GwasParseError(
                        f"column {name!r} has non-finite value {raw!r}", path, line
                    )
            if values["se"] <= 0.0:
                raise NonPositiveSEError(
                    f"standard error must be positive, got {values['se']}", path, line
                )
            ids.append(variant)
            beta.append(values["beta"])
            se.append(values["se"])
            if with_alleles:
                ea.append(row[pos["effect_allele"]].strip().upper())
                oa.append(row[pos["other_allele"]].strip().upper())
            line = reader.line_num + 1
    return tuple(ids), beta, se, (ea, oa) if with_alleles else None


HEADER = "id\tbeta\tse\teffect_allele\tother_allele"
ids = st.sampled_from(
    ["rs1", "rs2", "rs3", " rs1", "", " ", "rsé", '"rs4"', "rs5", '"rs\n6"', '"rs\r\n\n7"']
)
numbers = st.sampled_from(
    ["0.1", "-2.5e-3", " 1_000 ", "1e999", "nan", "-inf", "NA", "", "0", "-0.5", '"0.2"', "١"]
)
alleles = st.sampled_from(["A", "g", " c ", "AT", ""])
rows = st.one_of(
    st.tuples(ids, numbers, numbers, alleles, alleles).map("\t".join),
    st.lists(numbers, max_size=6).map("\t".join),
)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=200), st.sampled_from([b"", HEADER.encode() + b"\n"]))
def test_arbitrary_bytes_raise_only_input_errors(data, prefix):
    try:
        load_bytes(prefix + data)
    except InputError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    st.lists(rows, max_size=8),
    st.sampled_from(["\n", "\r\n"]),
    st.integers(min_value=1, max_value=4),
)
def test_chunked_loader_agrees_with_row_reading(body, newline, chunk_rows):
    data = newline.join([HEADER, *body, ""]).encode("utf-8")
    fd, path = tempfile.mkstemp(suffix=".tsv")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        try:
            expected = reference_load(path)
        except GwasParseError as exc:
            expected = exc
        with mock.patch.object(gwasio, "_CHUNK_ROWS", chunk_rows):
            try:
                got = load_gwas(path)
            except GwasParseError as exc:
                got = exc
    finally:
        os.unlink(path)

    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert (got.line, str(got)) == (expected.line, str(expected))
        return
    assert not isinstance(got, Exception), got
    exp_ids, exp_beta, exp_se, exp_alleles = expected
    assert got.ids == exp_ids
    np.testing.assert_array_equal(got.beta, np.array(exp_beta, dtype=float))
    np.testing.assert_array_equal(got.se, np.array(exp_se, dtype=float))
    assert (got.effect_allele.tolist(), got.other_allele.tolist()) == exp_alleles


def reference_harmonize(exposure, outcome, mode):
    """Row-by-row inner join in exposure order: (ids, beta_d, se_d, beta_y, se_y), dropped."""
    outcome_pos = {variant: j for j, variant in enumerate(outcome.ids)}
    kept, n_palindromic, n_mismatched = [], 0, 0
    for i, variant in enumerate(exposure.ids):
        j = outcome_pos.get(variant)
        if j is None:
            continue
        flip = False
        if mode is HarmonizeMode.BY_ALLELE:
            exp_pair = (exposure.effect_allele[i], exposure.other_allele[i])
            out_pair = (outcome.effect_allele[j], outcome.other_allele[j])
            if {*exp_pair} in ({"A", "T"}, {"C", "G"}) or {*out_pair} in ({"A", "T"}, {"C", "G"}):
                n_palindromic += 1
                continue
            if exp_pair != out_pair and exp_pair != out_pair[::-1]:
                n_mismatched += 1
                continue
            flip = exp_pair != out_pair
        beta_y = -outcome.beta[j] if flip else outcome.beta[j]
        kept.append((variant, exposure.beta[i], exposure.se[i], beta_y, outcome.se[j]))
    return kept, (n_palindromic, n_mismatched)


def gwas_file(draw, ids):
    n = len(ids)
    pairs = draw(st.lists(st.tuples(bases, bases), min_size=n, max_size=n))
    return GwasFile(
        ids=tuple(ids),
        beta=np.array(draw(st.lists(reals, min_size=n, max_size=n)), dtype=float),
        se=np.array(draw(st.lists(positive, min_size=n, max_size=n)), dtype=float),
        effect_allele=np.array([a for a, _ in pairs], dtype=str),
        other_allele=np.array([b for _, b in pairs], dtype=str),
    )


bases = st.sampled_from(["A", "C", "G", "T", "AT"])
reals = st.floats(-5.0, 5.0, allow_nan=False)
positive = st.floats(0.01, 5.0)


@st.composite
def study_pairs(draw):
    pool = [f"rs{k}" for k in range(12)]
    exposure_ids = draw(st.lists(st.sampled_from(pool), unique=True, max_size=10))
    outcome_ids = draw(st.permutations(draw(st.lists(st.sampled_from(pool), unique=True))))
    return gwas_file(draw, exposure_ids), gwas_file(draw, outcome_ids)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@settings(max_examples=300, deadline=None)
@given(study_pairs(), st.sampled_from(list(HarmonizeMode)))
def test_harmonize_matches_row_join(studies, mode):
    exposure, outcome = studies
    kept, (n_palindromic, n_mismatched) = reference_harmonize(exposure, outcome, mode)
    logger, handler = logging.getLogger("bidirmr.gwasio"), _Messages()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        panel = harmonize(exposure, outcome, mode)
    except EmptyIntersectionError:
        panel = None
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    assert (panel is None) == (not kept)
    if n_palindromic or n_mismatched:
        assert handler.messages == [
            f"harmonization dropped {n_palindromic} palindromic and "
            f"{n_mismatched} mismatched-allele variants"
        ]
    else:
        assert handler.messages == []
    if panel is not None:
        ids, beta_d, se_d, beta_y, se_y = zip(*kept)
        assert panel.ids == ids
        # Compared as bytes, so the sign of a zero counts too.
        for got, want in zip((panel.beta_d, panel.se_d, panel.beta_y, panel.se_y),
                             (beta_d, se_d, beta_y, se_y)):
            assert got.tobytes() == np.array(want, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(study_pairs(), st.data())
def test_allele_mode_ignores_outcome_orientation(studies, data):
    exposure, outcome = studies
    swap = np.array(data.draw(st.lists(st.booleans(), min_size=outcome.n, max_size=outcome.n)),
                    dtype=bool)
    swap &= outcome.effect_allele != outcome.other_allele  # an A/A pair has no orientation
    reoriented = GwasFile(
        ids=outcome.ids,
        beta=np.where(swap, -outcome.beta, outcome.beta),
        se=outcome.se,
        effect_allele=np.where(swap, outcome.other_allele, outcome.effect_allele),
        other_allele=np.where(swap, outcome.effect_allele, outcome.other_allele),
    )
    try:
        panel = harmonize(exposure, outcome, HarmonizeMode.BY_ALLELE)
    except EmptyIntersectionError:
        with pytest.raises(EmptyIntersectionError):
            harmonize(exposure, reoriented, HarmonizeMode.BY_ALLELE)
        return
    other = harmonize(exposure, reoriented, HarmonizeMode.BY_ALLELE)
    assert other.ids == panel.ids
    for name in ("beta_d", "se_d", "beta_y", "se_y"):
        assert getattr(other, name).tobytes() == getattr(panel, name).tobytes()
