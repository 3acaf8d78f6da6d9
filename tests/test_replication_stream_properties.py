"""The replication streams a scenario draws from are NumPy's own, for any seed and index.

:func:`bidirmr.simulation._replication_streams` derives the state that
``np.random.default_rng(SeedSequence(seed, spawn_key=(0, r)))`` starts in for a
whole chunk of indices ``r`` at once; NumPy's own chain, one child at a time,
is the oracle for every state and for the first draws from it. The arithmetic
is uint32 array arithmetic, so this runs under both NumPy promotion rules
(legacy value-based casting before NumPy 2, NEP 50 from it). From ``r = 2**32``
on, an index's spawn key takes two words.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bidirmr.simulation import _replication_streams  # noqa: E402


def assert_streams_are_numpys(entropy, first, count):
    stream = np.random.Generator(np.random.PCG64())
    rows = 0
    for rng in _replication_streams(stream, entropy, first, count):
        r = first + rows
        child = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(0, r)))
        assert rng.bit_generator.state == child.bit_generator.state, (entropy, r)
        ours, theirs = np.empty(7), np.empty(7)
        for row, source in ((ours, rng), (theirs, child)):
            source.random(out=row[:3])
            source.standard_normal(out=row[3:])
        assert ours.tobytes() == theirs.tobytes(), (entropy, r)
        rows += 1
    assert rows == count


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**200])
@pytest.mark.parametrize("first", [0, 1, 2**32 - 1, 2**32, 2**40 + 7])
def test_each_stream_starts_where_numpys_child_does(entropy, first):
    assert_streams_are_numpys(entropy, first, 2)


def test_a_chunk_across_two_key_lengths_keeps_every_stream():
    assert_streams_are_numpys(2**64 + 1, 2**32 - 2, 5)


# drawn indices of either key length, and entropies of one word to ten
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.integers(0, 2**32), st.integers(0, 2**300)),
    st.one_of(st.integers(0, 2**32 + 8), st.integers(0, 2**63)),
    st.integers(0, 6),
)
def test_streams_start_where_numpys_children_do(entropy, first, count):
    assert_streams_are_numpys(entropy, first, count)
