"""Keccak-256 commitments over canonical record bytes and storage keys.

``commit_records`` hashes many records through the batched Keccak and
encodes each record's canonical bytes only when its batch is taken.
``commit_corpus`` does the same for a corpus on disk in one streamed
pass: each file is read, parsed, normalized and encoded when the hasher
draws it, and only its key and commitment are kept; its files are split
across processes, one per usable CPU, merged as one process's.  The registry
stores commitments as 0x-prefixed lowercase hex text; storage keys hash
the packed 64-byte (lecture_id, slide_id) encoding, matching
``keccak256(abi.encodePacked(uint256, uint256))``.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Container, Iterable, Iterator

from . import records
from .keccak import keccak256, keccak256_many
from .records import CorpusReader, ProvenanceRecord, SlideKey, canonical_bytes, normalized_bytes

# A storage key is exactly 32 bytes.
StorageKey = bytes


@dataclass(frozen=True)
class Commitment:
    """32-byte Keccak-256 digest with its canonical hex form."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != 32:
            raise ValueError("commitment digest must be exactly 32 bytes")

    @property
    def hex(self) -> str:
        return "0x" + self.digest.hex()

    def matches_hex(self, text: str) -> bool:
        """Case-insensitive comparison against stored hex text."""
        return isinstance(text, str) and text.lower() == self.hex


def commit(data: bytes) -> Commitment:
    """Commitment over an arbitrary byte sequence (empty allowed)."""
    return Commitment(keccak256(data))


def commit_record(record: ProvenanceRecord) -> Commitment:
    """Commitment over a record's canonical bytes."""
    return commit(canonical_bytes(record))


def commit_records(records: Iterable[ProvenanceRecord]) -> list[Commitment]:
    """Commitments over many records' canonical bytes, in order."""
    return [Commitment(d) for d in keccak256_many(canonical_bytes(r) for r in records)]


# The fewest files a process of a split pass hashes.  On 2 vCPU, paper-scale
# files took 35 ms split in two against 41 ms in one process at 64 files,
# and about 26 ms either way at 32 (medians of 15).
MIN_FILES_PER_WORKER = 32


def _commit_range(reader: CorpusReader, only: Container[SlideKey]) -> tuple[list[SlideKey], list[bytes]]:
    """The keys of ``only`` that ``reader`` loads, and their digests."""
    keys: list[SlideKey] = []

    def encoded() -> Iterator[bytes]:
        for key, data in reader.read(normalized_bytes, only):
            keys.append(key)
            yield data

    return keys, keccak256_many(encoded())


def _fork(reader: CorpusReader, only: Container[SlideKey]) -> tuple[int, BinaryIO]:
    """Fork a child that hashes the files of ``only``; its pid, and the pipe on which it sends
    its pass's keys, digests, new failures and caught warnings, or the exception it raised."""
    import pickle  # not at the top, as in commit_corpus

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_end)
        return pid, os.fdopen(read_end, "rb")
    try:  # leaving through os._exit, the child flushes no inherited buffer and runs no caller's finally
        start = len(reader.failures)
        try:
            with warnings.catch_warnings(record=True) as caught:
                keys, digests = _commit_range(reader, only)
            result = (keys, digests, reader.failures[start:],
                      [(w.message, w.category, w.filename, w.lineno) for w in caught])
        except BaseException as exc:
            result = exc
        with os.fdopen(write_end, "wb") as pipe:
            pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
    finally:
        os._exit(0)


def commit_corpus(reader: CorpusReader) -> dict[SlideKey, Commitment]:
    """Commitments of the files ``reader`` loads, by key in key order.

    The files are split into W contiguous key ranges, W = min(usable CPUs,
    files // MIN_FILES_PER_WORKER), or 1 without fork or with another
    thread alive.  This process hashes the first range and a forked child
    each other; the ranges are merged, and the children's warnings
    replayed, in key order, as one process's pass has them.  A child's
    exception is raised here, and no child outlives the call.

    Raises EmptyCorpus as ``reader.read`` does.
    """
    keys = list(reader.paths)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    serial = not hasattr(os, "fork") or threading.active_count() > 1
    n = 1 if serial else max(1, min(cpus, len(keys) // MIN_FILES_PER_WORKER))
    if n > 1:  # only a split pass uses them, and they take ~3 ms to import
        import pickle
        import signal
    ranges = [set(keys[len(keys) * i // n:len(keys) * (i + 1) // n]) for i in range(n)]
    children: list[tuple[int, BinaryIO]] = []
    try:
        for only in ranges[1:]:
            children.append(_fork(reader, only))
        loaded, digests = _commit_range(reader, ranges[0])
        registry = vars(records).setdefault("__warningregistry__", {})  # records.py raises them
        for pid, pipe in children:
            try:
                result = pickle.load(pipe)
            except EOFError:  # it died before sending, as when the kernel kills it for memory
                raise ChildProcessError(f"hashing process {pid} ended without a result") from None
            if isinstance(result, BaseException):
                raise result
            loaded += result[0]
            digests += result[1]
            reader.failures += result[2]
            for caught in result[3]:
                warnings.warn_explicit(*caught, records.__name__, registry)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    reader.require_loaded(len(loaded))
    return dict(zip(loaded, map(Commitment, digests)))


def storage_key(key: SlideKey) -> StorageKey:
    """Keccak-256 over lecture_id and slide_id packed as 32-byte big-endian ints."""
    packed = key.lecture_id.to_bytes(32, "big") + key.slide_id.to_bytes(32, "big")
    return keccak256(packed)
