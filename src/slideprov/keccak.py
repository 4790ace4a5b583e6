"""Keccak-256 as used by the EVM.

This is the original Keccak submission with multi-rate pad10*1 (domain
byte 0x01), NOT the standardized SHA-3 variant (domain byte 0x06), so
``keccak256(b"") != hashlib.sha3_256(b"").digest()``.

There is one Keccak-f[1600], ``_permute_lanes``, and no scalar path.
``keccak256_many`` hashes many messages at once, the multi-instance
idea of XKCP's ``KeccakP-1600-times{2,4,8}`` done with numpy lanes: the
state is a ``(25, N)`` uint64 array whose column j is message j's state,
so each step of the permutation is one array operation over all N
messages.  Messages are taken from the input ``_BATCH`` at a time, and
only one batch's bytes are held at a time.  Within a batch the lanes are
ordered longest first, so that each absorbing step runs over the lanes
still absorbing and no more.  ``keccak256`` is the one-message case of
``keccak256_many``.

numpy is imported, and the lane tables built, when the first message is
hashed: nothing else in the package needs numpy.  The import starts
OpenBLAS with one thread unless ``OPENBLAS_NUM_THREADS`` is set, since no
BLAS routine runs here.
"""

from __future__ import annotations

import os
from functools import cache
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


def _squeeze(lanes: list[int]) -> bytes:
    """The 32-byte digest: the first four lanes, little-endian."""
    return b"".join(lane.to_bytes(8, "little") for lane in lanes[:4])


# Messages per batch.  Each permutation step costs a fixed numpy overhead
# plus work per lane, so a wider batch takes fewer steps for the same
# bytes.  On a 2-vCPU x86 machine, 1,117 canonical records (2.3 MB) hashed
# in 111 ms at 2,048 against 154 ms at 1,024; at 10,000 records 4,096 was
# no faster than 2,048 and holds twice the bytes.
_BATCH = 2048
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
    # OpenBLAS starts a thread per core when numpy is imported, and no BLAS
    # routine runs here; a count the user set is kept.
    if "OPENBLAS_NUM_THREADS" in os.environ:
        import numpy as np
    else:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy as np
        finally:
            del os.environ["OPENBLAS_NUM_THREADS"]
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
