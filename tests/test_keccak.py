import hashlib
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from keccak_reference import reference_keccak256
from slideprov import keccak
from slideprov.keccak import _BATCH, keccak256, keccak256_many

# Public test vectors for the original (pre-standardization) Keccak-256.
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


@pytest.mark.parametrize("data,expected", KNOWN_VECTORS)
def test_known_vectors(data, expected):
    assert keccak256(data).hex() == expected
    assert reference_keccak256(data).hex() == expected


def test_not_fips_sha3():
    # EVM Keccak uses the 0x01 domain byte, standardized SHA-3 uses 0x06
    assert keccak256(b"") != hashlib.sha3_256(b"").digest()
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


@pytest.mark.parametrize("length", [0, 1, 8, 135, 136, 137, 271, 272, 273, 500])
def test_block_boundaries_match_reference(length):
    data = bytes(range(256)) * 2
    data = data[:length]
    assert keccak256(data) == keccak256_many([data])[0] == reference_keccak256(data)


def test_random_cross_check():
    rng = random.Random(7)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(0, 300))
        assert keccak256(data) == reference_keccak256(data)


@given(st.binary(max_size=600))
@settings(max_examples=60, deadline=None)
def test_determinism_and_length(data):
    first = keccak256(data)
    assert first == keccak256(data)
    assert len(first) == 32


def test_avalanche_smoke():
    # flipping one input bit should flip about half the output bits
    rng = random.Random(42)
    total = 0
    trials = 1000
    for _ in range(trials):
        data = bytearray(rng.randbytes(rng.randrange(1, 64)))
        base = keccak256(bytes(data))
        bit = rng.randrange(len(data) * 8)
        data[bit // 8] ^= 1 << (bit % 8)
        flipped = keccak256(bytes(data))
        diff = int.from_bytes(base, "big") ^ int.from_bytes(flipped, "big")
        total += bin(diff).count("1")
    mean = total / trials
    assert 108 <= mean <= 148, f"avalanche mean {mean} outside 128 +/- 20"


def _reference_many(messages):
    return [reference_keccak256(data) for data in messages]


def test_many_empty_and_single():
    assert keccak256_many([]) == []
    assert keccak256_many(iter([])) == []
    assert keccak256_many([b"abc"]) == [reference_keccak256(b"abc")]


def test_many_mixed_block_boundaries_keep_order():
    data = bytes(range(256)) * 2
    lengths = [0, 1, 135, 136, 137, 271, 272, 273]
    # the lengths and their reverse, so results cannot come back sorted by size;
    # the long message then absorbs its last blocks alone in a one-lane state
    messages = [data[:n] for n in lengths + lengths[::-1]] + [bytes(1500)]
    assert keccak256_many(messages) == _reference_many(messages)


# empty, one byte short of a block, exactly one block, one byte short of two
BOUNDARY_LENGTHS = [0, 135, 136, 271]


def test_many_spans_several_batches(monkeypatch):
    monkeypatch.setattr(keccak, "_BATCH", 5)
    rng = random.Random(11)
    lengths = BOUNDARY_LENGTHS * 4 + [rng.randrange(0, 700) for _ in range(21)]
    rng.shuffle(lengths)
    messages = [rng.randbytes(n) for n in lengths]
    # a generator: the batches are drawn from it lazily
    assert keccak256_many(data for data in messages) == _reference_many(messages)


@given(st.lists(st.binary(max_size=600), max_size=12))
@settings(max_examples=40, deadline=None)
def test_many_matches_reference(messages):
    assert keccak256_many(messages) == _reference_many(messages)


def _pooled_messages(n, seed):
    """n messages drawn from a pool of 52 of 1 to 6 blocks, with each reference digest."""
    rng = random.Random(seed)
    pool = [rng.randbytes(n) for n in BOUNDARY_LENGTHS]
    pool += [rng.randbytes(rng.randrange(0, 6 * 136)) for _ in range(48)]
    digests = _reference_many(pool)
    picks = [rng.randrange(len(pool)) for _ in range(n)]
    return [pool[i] for i in picks], [digests[i] for i in picks]


@pytest.mark.parametrize("n", [_BATCH, _BATCH + 1, 2 * _BATCH + 3])
def test_many_across_batch_boundaries_keeps_input_order(n):
    # block counts are mixed within every batch, so ordering its lanes longest first reorders it
    messages, expected = _pooled_messages(n, seed=n)
    assert keccak256_many(iter(messages)) == expected


def _sha3_pad(data):
    """pad10*1 with SHA-3's 0x06 domain byte, to a whole number of blocks."""
    pad_len = keccak._RATE - len(data) % keccak._RATE
    if pad_len == 1:
        return data + b"\x86"
    return data + b"\x06" + bytes(pad_len - 2) + b"\x80"


def test_full_batch_matches_hashlib_sha3(monkeypatch):
    # With SHA-3's domain byte the same permutation computes SHA3-256, which
    # hashlib runs on a C Keccak-f[1600] of its own: fast enough to check a full
    # batch of 2,048 lanes, narrowed at every block count from 9 down to 1,
    # which the pure-Python reference is too slow to reach.
    monkeypatch.setattr(keccak, "_pad", _sha3_pad)
    rng = random.Random(2049)
    lengths = [0, 135, 136, 271, 272, 1100]
    lengths += [rng.randrange(0, 1101) for _ in range(_BATCH + 1 - len(lengths))]
    rng.shuffle(lengths)
    messages = [rng.randbytes(n) for n in lengths]
    assert keccak256_many(messages) == [hashlib.sha3_256(data).digest() for data in messages]
