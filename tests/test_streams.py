import numpy as np
import pytest

from riesz_she.streams import stream_for

EDGE_KEYS = [(0, 0), (2**63, 1), (2**64 - 1, 2**64 - 1), (12345, 2**32),
             (7, 2**63)]


def fresh(seed, rid):
    key = np.array([seed % 2**64, rid], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed, rid", EDGE_KEYS)
def test_stream_for_equals_fresh_philox(seed, rid):
    assert np.array_equal(stream_for(seed, rid).standard_normal(257),
                          fresh(seed, rid).standard_normal(257))


@pytest.mark.parametrize("seed, rid", [(601, 0), (2**64 + 5, 17),
                                       (2**70 + 3, 2**64 - 1), (42, 2**64 - 1)])
def test_stream_for_state_equals_keyed_philox(seed, rid):
    # the stream is built from its key alone, with no entropy-seeded
    # SeedSequence, and is the same generator as Philox(key=...)
    ours, ref = stream_for(seed, rid), fresh(seed, rid)
    # the state dict's arrays are uint64, so their repr is exact
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(ours.standard_normal(1000),
                          ref.standard_normal(1000))


def test_stream_for_takes_the_seed_mod_2_64():
    assert np.array_equal(stream_for(-1, 3).standard_normal(9),
                          fresh(2**64 - 1, 3).standard_normal(9))


def test_stream_for_after_other_key_was_used():
    # each call owns its generator: using one, with a buffered 32-bit half
    # left over, neither moves another nor a later one
    g = stream_for(3, 4)
    g.standard_normal(3)
    g.integers(0, 2**32, dtype=np.uint32)
    held = stream_for(3, 5)
    for seed, rid in EDGE_KEYS:
        a = stream_for(seed, rid)
        assert np.array_equal(a.standard_normal(33),
                              fresh(seed, rid).standard_normal(33))
        a.integers(0, 2**32, size=3, dtype=np.uint32)
    assert np.array_equal(held.standard_normal(33),
                          fresh(3, 5).standard_normal(33))


def test_stream_for_fills_a_row_in_place():
    out = np.empty((2, 64))
    stream_for(9, 2).standard_normal(out=out[1])
    assert np.array_equal(out[1], fresh(9, 2).standard_normal(64))


@pytest.mark.parametrize("shape", [(64,), (8, 8)], ids=["d1", "d2"])
def test_consecutive_draws_are_one_draw_split(shape):
    # why step k of a replica reads the k-th block of its stream: two draws
    # of n normals, C order, equal the halves of one draw of 2n
    g = stream_for(11, 6)
    first, second = g.standard_normal(shape), g.standard_normal(shape)
    both = fresh(11, 6).standard_normal((2,) + shape)
    assert np.array_equal(first, both[0])
    assert np.array_equal(second, both[1])


@pytest.mark.parametrize("rid", [-1, 2**64])
def test_stream_for_range_checks(rid):
    with pytest.raises(ValueError, match="64-bit range"):
        stream_for(0, rid)
