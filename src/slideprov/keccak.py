"""Keccak-256 as used by the EVM.

This is the original Keccak submission with multi-rate pad10*1 (domain
byte 0x01), NOT the standardized SHA-3 variant (domain byte 0x06), so
``keccak256(b"") != hashlib.sha3_256(b"").digest()``.

``keccak256`` hashes one message in pure Python with a straight-line
permutation (the rho/pi/chi data flow is unrolled with the standard
rotation and lane-permutation tables baked in).  It is the reference
and the path for single inputs.

``keccak256_many`` hashes many messages at once, the multi-instance
idea of XKCP's ``KeccakP-1600-times{2,4,8}`` done with numpy lanes: the
state is a ``(25, N)`` uint64 array whose column j is message j's state,
so each step of the permutation is one array operation over all N
messages.  A batch runs as many steps as its longest message has
blocks, so messages are taken from the input a window of ``_WINDOW``
batches at a time and grouped by block count before they are batched.
Only one window's bytes are held at a time.

numpy is imported, and the lane tables built, when the first batch is
hashed: nothing else in the package needs numpy.
"""

from __future__ import annotations

from functools import cache
from itertools import count, islice
from typing import Iterable

_MASK64 = (1 << 64) - 1
_RATE = 136  # 1088-bit rate / 512-bit capacity for 256-bit output

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)


def _permute(state: list[int]) -> None:
    """Keccak-f[1600] over 25 lanes; lane i holds A[x][y] with i = x + 5*y."""
    M = _MASK64
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = state
    for rc in _ROUND_CONSTANTS:
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & M)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & M)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & M)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & M)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & M)
        b0 = a0 ^ d0
        t = a1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & M
        t = a2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & M
        t = a3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & M
        t = a4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & M
        t = a5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & M
        t = a6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & M
        t = a7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & M
        t = a8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & M
        t = a9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & M
        t = a10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & M
        t = a11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & M
        t = a12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & M
        t = a13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & M
        t = a14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & M
        t = a15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & M
        t = a16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & M
        t = a17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & M
        t = a18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & M
        t = a19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & M
        t = a20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & M
        t = a21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & M
        t = a22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & M
        t = a23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & M
        t = a24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & M
        a0 = b0 ^ ((b1 ^ M) & b2)
        a1 = b1 ^ ((b2 ^ M) & b3)
        a2 = b2 ^ ((b3 ^ M) & b4)
        a3 = b3 ^ ((b4 ^ M) & b0)
        a4 = b4 ^ ((b0 ^ M) & b1)
        a5 = b5 ^ ((b6 ^ M) & b7)
        a6 = b6 ^ ((b7 ^ M) & b8)
        a7 = b7 ^ ((b8 ^ M) & b9)
        a8 = b8 ^ ((b9 ^ M) & b5)
        a9 = b9 ^ ((b5 ^ M) & b6)
        a10 = b10 ^ ((b11 ^ M) & b12)
        a11 = b11 ^ ((b12 ^ M) & b13)
        a12 = b12 ^ ((b13 ^ M) & b14)
        a13 = b13 ^ ((b14 ^ M) & b10)
        a14 = b14 ^ ((b10 ^ M) & b11)
        a15 = b15 ^ ((b16 ^ M) & b17)
        a16 = b16 ^ ((b17 ^ M) & b18)
        a17 = b17 ^ ((b18 ^ M) & b19)
        a18 = b18 ^ ((b19 ^ M) & b15)
        a19 = b19 ^ ((b15 ^ M) & b16)
        a20 = b20 ^ ((b21 ^ M) & b22)
        a21 = b21 ^ ((b22 ^ M) & b23)
        a22 = b22 ^ ((b23 ^ M) & b24)
        a23 = b23 ^ ((b24 ^ M) & b20)
        a24 = b24 ^ ((b20 ^ M) & b21)
        a0 ^= rc
    state[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    state = [0] * 25
    padded = _pad(data)
    for off in range(0, len(padded), _RATE):
        block = padded[off:off + _RATE]
        for lane in range(17):
            state[lane] ^= int.from_bytes(block[lane * 8:lane * 8 + 8], "little")
        _permute(state)
    return _squeeze(state)


def _pad(data: bytes) -> bytes:
    """pad10*1 with the 0x01 domain byte, to a whole number of blocks."""
    pad_len = _RATE - len(data) % _RATE
    if pad_len == 1:
        return data + b"\x81"
    return data + b"\x01" + bytes(pad_len - 2) + b"\x80"


def _squeeze(lanes: list[int]) -> bytes:
    """The 32-byte digest: the first four lanes, little-endian."""
    return b"".join(lane.to_bytes(8, "little") for lane in lanes[:4])


# --------------------------------------------------------------------------
# many messages at once

# Messages per batch: bounds the batch's padded bytes, and keeps the
# (25, N) state and its temporaries in cache.
_BATCH = 256
# Batches per window: messages of similar length are batched together
# within a window, which bounds the bytes held to _WINDOW * _BATCH messages.
_WINDOW = 4
_LANES_PER_BLOCK = _RATE // 8


def _lane_tables() -> tuple[list[int], list[int]]:
    """(source lane, rho rotation) for each lane of the pi-permuted state."""
    rho = [0] * 25
    x, y = 1, 0
    for t in range(24):
        rho[x + 5 * y] = (t + 1) * (t + 2) // 2 % 64
        x, y = y, (2 * x + 3 * y) % 5
    source = [0] * 25
    for i in range(25):
        x, y = i % 5, i // 5
        source[y + 5 * ((2 * x + 3 * y) % 5)] = i
    return source, [rho[i] for i in source]


@cache
def _load_numpy() -> None:
    """Import numpy and build the lane tables as module globals, once."""
    global np, _ROT_LEFT, _ROT_RIGHT, _PI_TAKE, _CHI_NEXT, _CHI_NEXT2
    global _COL_NEXT, _COL_PREV, _ONE, _SIXTY_THREE, _RC_LANES
    import numpy as np
    source, rot = _lane_tables()
    # Every shift count and constant is np.uint64, so numpy 1.x and 2.x promote alike.
    _ROT_LEFT = np.array(rot, dtype=np.uint64).reshape(25, 1)
    # A rotation by 0 shifts right by 0, not by 64 (undefined): the OR then
    # gives the lane back unchanged.
    _ROT_RIGHT = np.array([(64 - r) % 64 for r in rot], dtype=np.uint64).reshape(25, 1)
    _PI_TAKE = np.array(source, dtype=np.intp)
    _CHI_NEXT = np.array([(i + 1) % 5 + i - i % 5 for i in range(25)], dtype=np.intp)
    _CHI_NEXT2 = np.array([(i + 2) % 5 + i - i % 5 for i in range(25)], dtype=np.intp)
    _COL_NEXT = np.array([1, 2, 3, 4, 0], dtype=np.intp)
    _COL_PREV = np.array([4, 0, 1, 2, 3], dtype=np.intp)
    _ONE = np.uint64(1)
    _SIXTY_THREE = np.uint64(63)
    _RC_LANES = np.array(_ROUND_CONSTANTS, dtype=np.uint64)


def _permute_lanes(a: np.ndarray) -> None:
    """Keccak-f[1600] in place on a C-contiguous (25, m) uint64 state."""
    m = a.shape[1]
    rows = a.reshape(5, 5, m)  # rows[y, x] is lane x + 5*y
    c = np.empty((5, m), np.uint64)
    d = np.empty((5, m), np.uint64)
    t5 = np.empty((5, m), np.uint64)
    b = np.empty((25, m), np.uint64)
    t = np.empty((25, m), np.uint64)
    u = np.empty((25, m), np.uint64)
    for rc in _RC_LANES:
        # theta: d[x] = c[x-1] ^ rotl(c[x+1], 1) folded into every lane of column x
        np.bitwise_xor.reduce(rows, axis=0, out=c)
        np.take(c, _COL_NEXT, axis=0, out=t5, mode="wrap")
        np.left_shift(t5, _ONE, out=d)
        np.right_shift(t5, _SIXTY_THREE, out=t5)
        np.bitwise_or(d, t5, out=d)
        np.take(c, _COL_PREV, axis=0, out=t5, mode="wrap")
        np.bitwise_xor(d, t5, out=d)
        np.bitwise_xor(rows, d, out=rows)
        # rho and pi: b[j] = rotl(a[source[j]], rot[j])
        np.take(a, _PI_TAKE, axis=0, out=b, mode="wrap")
        np.left_shift(b, _ROT_LEFT, out=t)
        np.right_shift(b, _ROT_RIGHT, out=b)
        np.bitwise_or(b, t, out=b)
        # chi: a = b ^ (~b[x+1] & b[x+2]) within each row
        np.take(b, _CHI_NEXT, axis=0, out=t, mode="wrap")
        np.invert(t, out=t)
        np.take(b, _CHI_NEXT2, axis=0, out=u, mode="wrap")
        np.bitwise_and(t, u, out=t)
        np.bitwise_xor(b, t, out=a)
        # iota
        a[0] ^= rc


def _hash_batch(batch: list[bytes]) -> list[bytes]:
    """Digests of one batch, in input order."""
    _load_numpy()
    blocks = [len(data) // _RATE + 1 for data in batch]
    # Longest first: the lanes still absorbing at block k are then a prefix.
    order = sorted(range(len(batch)), key=blocks.__getitem__, reverse=True)
    blocks = [blocks[i] for i in order]
    words = np.frombuffer(b"".join(_pad(batch[i]) for i in order), dtype="<u8")
    words = words.astype(np.uint64, copy=False).reshape(-1, _LANES_PER_BLOCK)
    start = np.cumsum([0] + blocks[:-1], dtype=np.intp)  # each message's first row

    digests: list[bytes] = [b""] * len(batch)
    state = np.zeros((25, len(batch)), np.uint64)
    active = len(batch)
    for k in count():
        m = active
        while m and blocks[m - 1] <= k:
            m -= 1
        if m < active:  # lanes m..active-1 have absorbed their last block
            for j in range(m, active):
                digests[order[j]] = _squeeze(state[:4, j].tolist())
            state = state[:, :m].copy()
            active = m
        if not m:
            return digests
        state[:_LANES_PER_BLOCK] ^= words[start[:m] + k].T
        _permute_lanes(state)


def keccak256_many(messages: Iterable[bytes]) -> list[bytes]:
    """Keccak-256 digests of ``messages``, in order; equal to ``map(keccak256, ...)``.

    Messages are drawn from the iterable ``_WINDOW * _BATCH`` at a time,
    so a generator's items need not all be in memory at once.
    """
    it = iter(messages)
    digests: list[bytes] = []
    while window := list(islice(it, _WINDOW * _BATCH)):
        by_blocks = sorted(range(len(window)), key=lambda i: len(window[i]) // _RATE)
        ordered: list[bytes] = [b""] * len(window)
        for lo in range(0, len(window), _BATCH):
            part = by_blocks[lo:lo + _BATCH]
            for i, digest in zip(part, _hash_batch([window[i] for i in part])):
                ordered[i] = digest
        digests += ordered
    return digests
