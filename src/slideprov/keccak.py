"""Keccak-256 as used by the EVM.

This is the original Keccak submission with multi-rate pad10*1 (domain
byte 0x01), NOT the standardized SHA-3 variant (domain byte 0x06), so
``keccak256(b"") != hashlib.sha3_256(b"").digest()``.

There is one Keccak-f[1600], ``_permute``, and no scalar path.
``keccak256_many`` hashes many messages at once, the multi-instance idea
of XKCP's ``KeccakP-1600-times{2,4,8}`` done in plain Python integers:
the state is 25 ints, and lane i of message j sits in bits
``[64j, 64j + 64)`` of int i, so each XOR, AND and OR of the permutation
acts on every message of the batch at once.  A rotation masks each
lane's low and high bits apart before shifting them into place, so no
bit crosses into a neighbouring message.  Messages are taken from the
input ``_BATCH`` at a time, and only one batch's bytes are held at a
time.  Within a batch the messages are ordered longest first, so the ones
still absorbing at a block sit in the low bits and a finished message is
dropped by masking off the high ones.  ``keccak256`` is the one-message
case of ``keccak256_many``.

No array library is needed, so no command imports numpy.  Per byte,
the packed ints hash about 1.6x slower than the numpy ``(25, N)`` uint64
lanes they replaced, and the saving is numpy's import, about 90 ms per
process.  On a 2-vCPU x86 machine under Python 3.11, the first hash of a
process took, over 1,117 canonical records (2.3 MB), 0.21 s against
0.21 s for numpy including its import (medians of 5), and over 10,000
records (21 MB) 1.41 s against 0.99 s (medians of 3).
"""

from __future__ import annotations

from itertools import count, islice
from typing import Iterable

_RATE = 136  # 1088-bit rate / 512-bit capacity for 256-bit output

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _pad(data: bytes) -> bytes:
    """pad10*1 with the 0x01 domain byte, to a whole number of blocks."""
    pad_len = _RATE - len(data) % _RATE
    if pad_len == 1:
        return data + b"\x81"
    return data + b"\x01" + bytes(pad_len - 2) + b"\x80"


# Messages per batch.  Each operation on a packed int costs a fixed
# interpreter overhead plus work per message, so a wider batch takes fewer
# operations for the same bytes.  On a 2-vCPU x86 machine, 1,117 canonical
# records (2.3 MB) hashed in 0.19 s at 2,048 against 0.21 s at 1,024 and
# 0.25 s at 512; at 10,000 records 4,096 (1.55 s) was within the spread of
# 2,048 (1.65 s) and holds twice the bytes.
_BATCH = 2048
_LANES_PER_BLOCK = _RATE // 8

# rho's rotation of lanes 1..24 of the pi-permuted state, in the order of
# _permute's b01..b24; b00 does not rotate.
_RHO = (44, 43, 21, 14, 28, 20, 3, 45, 61, 1, 6, 25, 8, 18, 27, 36, 10, 15, 56, 62, 55, 39, 41, 2)


def _repeat(word: int, n: int) -> int:
    """``word`` in each of the n 64-bit fields of an int."""
    return int.from_bytes(word.to_bytes(8, "little") * n, "little")


def _rotation_masks(n: int) -> list[int]:
    """For each r of ``_RHO``, the low 64 - r bits of each of n 64-bit fields.

    With ``u = t & mask``, ``(u << r) ^ ((t ^ u) >> (64 - r))`` rotates
    every 64-bit field of t left by r, and no bit crosses into another
    field.  The masks serve any state of at most n messages.
    """
    return [_repeat((1 << (64 - r)) - 1, n) for r in _RHO]


def _permute(a: list[int], round_constants: list[int], masks: list[int]) -> list[int]:
    """Keccak-f[1600] on a packed state of 25 ints.

    ``round_constants`` are packed into as many fields as the state has,
    and ``masks`` are ``_rotation_masks`` of at least that many.
    """
    (a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = a
    (m44, m43, m21, m14, m28, m20, m3, m45, m61, m1, m6, m25,
     m8, m18, m27, m36, m10, m15, m56, m62, m55, m39, m41, m2) = masks
    for rc in round_constants:
        # theta: d[x] = c[x-1] ^ rotl(c[x+1], 1), with c[x] the parity of column x
        c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20
        c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21
        c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22
        c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23
        c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((u := c1 & m1) << 1) ^ ((c1 ^ u) >> 63)
        d1 = c0 ^ ((u := c2 & m1) << 1) ^ ((c2 ^ u) >> 63)
        d2 = c1 ^ ((u := c3 & m1) << 1) ^ ((c3 ^ u) >> 63)
        d3 = c2 ^ ((u := c4 & m1) << 1) ^ ((c4 ^ u) >> 63)
        d4 = c3 ^ ((u := c0 & m1) << 1) ^ ((c0 ^ u) >> 63)
        # rho and pi, theta's d folded in: b[y + 5*((2x+3y) % 5)] = rotl(a[x+5y] ^ d[x], rho[x+5y])
        b00 = a00 ^ d0
        t = a06 ^ d1; b01 = ((u := t & m44) << 44) ^ ((t ^ u) >> 20)
        t = a12 ^ d2; b02 = ((u := t & m43) << 43) ^ ((t ^ u) >> 21)
        t = a18 ^ d3; b03 = ((u := t & m21) << 21) ^ ((t ^ u) >> 43)
        t = a24 ^ d4; b04 = ((u := t & m14) << 14) ^ ((t ^ u) >> 50)
        t = a03 ^ d3; b05 = ((u := t & m28) << 28) ^ ((t ^ u) >> 36)
        t = a09 ^ d4; b06 = ((u := t & m20) << 20) ^ ((t ^ u) >> 44)
        t = a10 ^ d0; b07 = ((u := t & m3) << 3) ^ ((t ^ u) >> 61)
        t = a16 ^ d1; b08 = ((u := t & m45) << 45) ^ ((t ^ u) >> 19)
        t = a22 ^ d2; b09 = ((u := t & m61) << 61) ^ ((t ^ u) >> 3)
        t = a01 ^ d1; b10 = ((u := t & m1) << 1) ^ ((t ^ u) >> 63)
        t = a07 ^ d2; b11 = ((u := t & m6) << 6) ^ ((t ^ u) >> 58)
        t = a13 ^ d3; b12 = ((u := t & m25) << 25) ^ ((t ^ u) >> 39)
        t = a19 ^ d4; b13 = ((u := t & m8) << 8) ^ ((t ^ u) >> 56)
        t = a20 ^ d0; b14 = ((u := t & m18) << 18) ^ ((t ^ u) >> 46)
        t = a04 ^ d4; b15 = ((u := t & m27) << 27) ^ ((t ^ u) >> 37)
        t = a05 ^ d0; b16 = ((u := t & m36) << 36) ^ ((t ^ u) >> 28)
        t = a11 ^ d1; b17 = ((u := t & m10) << 10) ^ ((t ^ u) >> 54)
        t = a17 ^ d2; b18 = ((u := t & m15) << 15) ^ ((t ^ u) >> 49)
        t = a23 ^ d3; b19 = ((u := t & m56) << 56) ^ ((t ^ u) >> 8)
        t = a02 ^ d2; b20 = ((u := t & m62) << 62) ^ ((t ^ u) >> 2)
        t = a08 ^ d3; b21 = ((u := t & m55) << 55) ^ ((t ^ u) >> 9)
        t = a14 ^ d4; b22 = ((u := t & m39) << 39) ^ ((t ^ u) >> 25)
        t = a15 ^ d0; b23 = ((u := t & m41) << 41) ^ ((t ^ u) >> 23)
        t = a21 ^ d1; b24 = ((u := t & m2) << 2) ^ ((t ^ u) >> 62)
        # chi: a[x] = b[x] ^ (~b[x+1] & b[x+2]) along each row, with no negative int
        a00 = b00 ^ ((b01 | b02) ^ b01)
        a01 = b01 ^ ((b02 | b03) ^ b02)
        a02 = b02 ^ ((b03 | b04) ^ b03)
        a03 = b03 ^ ((b04 | b00) ^ b04)
        a04 = b04 ^ ((b00 | b01) ^ b00)
        a05 = b05 ^ ((b06 | b07) ^ b06)
        a06 = b06 ^ ((b07 | b08) ^ b07)
        a07 = b07 ^ ((b08 | b09) ^ b08)
        a08 = b08 ^ ((b09 | b05) ^ b09)
        a09 = b09 ^ ((b05 | b06) ^ b05)
        a10 = b10 ^ ((b11 | b12) ^ b11)
        a11 = b11 ^ ((b12 | b13) ^ b12)
        a12 = b12 ^ ((b13 | b14) ^ b13)
        a13 = b13 ^ ((b14 | b10) ^ b14)
        a14 = b14 ^ ((b10 | b11) ^ b10)
        a15 = b15 ^ ((b16 | b17) ^ b16)
        a16 = b16 ^ ((b17 | b18) ^ b17)
        a17 = b17 ^ ((b18 | b19) ^ b18)
        a18 = b18 ^ ((b19 | b15) ^ b19)
        a19 = b19 ^ ((b15 | b16) ^ b15)
        a20 = b20 ^ ((b21 | b22) ^ b21)
        a21 = b21 ^ ((b22 | b23) ^ b22)
        a22 = b22 ^ ((b23 | b24) ^ b23)
        a23 = b23 ^ ((b24 | b20) ^ b24)
        a24 = b24 ^ ((b20 | b21) ^ b20)
        # iota
        a00 ^= rc
    return [a00, a01, a02, a03, a04, a05, a06, a07, a08, a09, a10, a11, a12,
            a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24]


def _hash_batch(batch: list[bytes]) -> list[bytes]:
    """Digests of one batch, in input order."""
    n = len(batch)
    padded = [_pad(data) for data in batch]
    # Longest first: the messages still absorbing at block k are then a prefix.
    order = sorted(range(n), key=lambda j: len(padded[j]), reverse=True)
    padded = [padded[j] for j in order]
    masks = _rotation_masks(n)
    round_constants = [_repeat(rc, n) for rc in _ROUND_CONSTANTS]

    digests: list[bytes] = [b""] * n
    state = [0] * 25
    active = n
    for k in count():
        end = _RATE * (k + 1)
        m = active
        while m and len(padded[m - 1]) < end:
            m -= 1
        if m < active:  # messages m..active-1 have absorbed their last block
            lanes = [lane.to_bytes(8 * active, "little") for lane in state[:4]]
            for j in range(m, active):
                digests[order[j]] = b"".join(lane[8 * j:8 * j + 8] for lane in lanes)
            if not m:
                return digests
            keep = (1 << 64 * m) - 1
            state = [lane & keep for lane in state]
            round_constants = [rc & keep for rc in round_constants]
            active = m
        words = memoryview(b"".join([data[end - _RATE:end] for data in padded[:m]])).cast("Q")
        for i in range(_LANES_PER_BLOCK):
            state[i] ^= int.from_bytes(words[i::_LANES_PER_BLOCK].tobytes(), "little")
        state = _permute(state, round_constants, masks)


def keccak256_many(messages: Iterable[bytes]) -> list[bytes]:
    """Keccak-256 digests of ``messages``, in input order.

    Messages are drawn from the iterable ``_BATCH`` at a time, so a
    generator's items need not all be in memory at once.
    """
    it = iter(messages)
    digests: list[bytes] = []
    while batch := list(islice(it, _BATCH)):
        digests += _hash_batch(batch)
    return digests


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    return keccak256_many((data,))[0]
