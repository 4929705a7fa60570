"""Bloom filter unit behaviour: determinism, membership, sizing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rls.bloom import BloomFilter, hash_pair


def test_no_false_negatives():
    bloom = BloomFilter.for_capacity(1000, fpp=0.01)
    keys = [f"lfn-{i:04d}.dat" for i in range(1000)]
    bloom.update(keys)
    assert all(key in bloom for key in keys)


def test_false_positive_rate_near_design_point():
    bloom = BloomFilter.for_capacity(5000, fpp=0.01)
    bloom.update(f"member-{i}" for i in range(5000))
    misses = sum(
        1 for i in range(20_000) if f"absent-{i}" in bloom
    )
    # binomial noise around 1%: anything under 2% is on spec
    assert misses / 20_000 < 0.02


def test_empty_filter_holds_nothing():
    bloom = BloomFilter.for_capacity(0)
    assert "anything" not in bloom
    assert bloom.n_added == 0
    assert bloom.fill_ratio() == 0.0
    assert bloom.n_bits >= 64  # the shape floor keeps tiny filters sane


def test_insertion_order_independent_bytes():
    keys = [f"f-{i}" for i in range(500)]
    forward = BloomFilter.for_capacity(500)
    forward.update(keys)
    backward = BloomFilter.for_capacity(500)
    backward.update(reversed(keys))
    assert forward.to_bytes() == backward.to_bytes()
    assert forward.fingerprint() == backward.fingerprint()


def test_fingerprint_covers_shape_and_content():
    a = BloomFilter(1024, 3)
    b = BloomFilter(1024, 4)  # same bits, different hash count
    assert a.fingerprint() != b.fingerprint()
    c = BloomFilter(1024, 3)
    c.add("x")
    assert a.fingerprint() != c.fingerprint()


def test_contains_pair_matches_contains():
    bloom = BloomFilter.for_capacity(100)
    bloom.update(f"k{i}" for i in range(100))
    for key in ["k0", "k50", "k99", "absent-a", "absent-b"]:
        assert (key in bloom) == bloom.contains_pair(hash_pair(key))


def test_hash_pair_is_stable_and_odd():
    h1, h2 = hash_pair("some-lfn.dat")
    assert (h1, h2) == hash_pair("some-lfn.dat")
    assert h2 % 2 == 1  # odd step: the probe sequence cycles all bits


def test_copy_is_independent():
    bloom = BloomFilter.for_capacity(10)
    bloom.add("a")
    clone = bloom.copy()
    clone.add("b")
    assert "b" in clone
    assert "b" not in bloom
    assert clone.n_added == 2 and bloom.n_added == 1


def test_for_capacity_scales_bits_with_capacity():
    small = BloomFilter.for_capacity(1_000, fpp=0.01)
    large = BloomFilter.for_capacity(100_000, fpp=0.01)
    assert large.n_bits > 50 * small.n_bits
    # ~9.6 bits/key at 1% fpp
    assert 8 <= large.n_bits / 100_000 <= 12


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(0, 1)
    with pytest.raises(ValueError):
        BloomFilter(64, 0)
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(-1)
    with pytest.raises(ValueError):
        BloomFilter.for_capacity(10, fpp=1.5)


key_sets = st.lists(
    st.one_of(st.text(max_size=12), st.sampled_from(["a", "lfn-1", "é"])),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(
    keys=key_sets,
    n_bits=st.integers(min_value=1, max_value=3000),
    n_hashes=st.integers(min_value=1, max_value=12),
)
def test_update_sets_the_bits_add_sets(keys, n_bits, n_hashes):
    """Whole-array ``update`` == per-key ``add``: empty, duplicate and
    unicode key sets, sizes off a byte boundary, 1..12 hashes."""
    one_by_one = BloomFilter(n_bits, n_hashes)
    for key in keys:
        one_by_one.add(key)
    at_once = BloomFilter(n_bits, n_hashes)
    at_once.update(iter(keys))
    assert at_once._bits == one_by_one._bits
    assert at_once.n_added == one_by_one.n_added == len(keys)
    assert all(key in at_once for key in keys)


def test_update_across_chunks_matches_add(monkeypatch):
    from repro.rls import bloom as bloom_module

    monkeypatch.setattr(bloom_module, "_UPDATE_CHUNK", 7)
    keys = [f"lfn-{i % 40}" for i in range(100)]
    one_by_one = BloomFilter(1001, 5)
    for key in keys:
        one_by_one.add(key)
    at_once = BloomFilter(1001, 5)
    at_once.update(keys)
    assert at_once.to_bytes() == one_by_one.to_bytes()
    assert at_once.n_added == 100
