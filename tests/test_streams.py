import numpy as np
import pytest

from riesz_she.streams import stream_for

EDGE_KEYS = [(0, 0, 0), (2**63, 1, 2), (2**64 - 1, 2**32 - 1, 2**32 - 1),
             (12345, 2**32 - 1, 0), (7, 0, 2**32 - 1)]


def fresh(seed, rid, k):
    key = np.array([seed & (2**64 - 1), rid << 32 | k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed, rid, k", EDGE_KEYS)
def test_stream_for_equals_fresh_philox(seed, rid, k):
    assert np.array_equal(stream_for(seed, rid, k).standard_normal(257),
                          fresh(seed, rid, k).standard_normal(257))


def test_stream_for_after_other_key_was_used():
    # leave the shared generator part-way through a block, with a buffered
    # 32-bit half, then re-key it
    g = stream_for(3, 4, 5)
    g.standard_normal(3)
    g.integers(0, 2**32, dtype=np.uint32)
    g.random()
    for seed, rid, k in EDGE_KEYS:
        a = stream_for(seed, rid, k)
        assert np.array_equal(a.standard_normal(33),
                              fresh(seed, rid, k).standard_normal(33))
        a.integers(0, 2**32, size=3, dtype=np.uint32)


def test_stream_for_fills_a_row_in_place():
    out = np.empty((2, 64))
    stream_for(9, 2, 11).standard_normal(out=out[1])
    assert np.array_equal(out[1], fresh(9, 2, 11).standard_normal(64))


@pytest.mark.parametrize("rid, k", [(-1, 0), (2**32, 0), (0, -1), (0, 2**32)])
def test_stream_for_range_checks(rid, k):
    with pytest.raises(ValueError, match="32-bit range"):
        stream_for(0, rid, k)
