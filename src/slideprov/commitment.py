"""Keccak-256 commitments over canonical record bytes and storage keys.

``commit_records`` hashes many records through the batched Keccak and
encodes each record's canonical bytes only when its batch is taken.
``commit_corpus`` does the same for a corpus on disk in one streamed pass,
split across processes by ``records.split_pass``: each file is read,
parsed, normalized and encoded when the hasher draws it, and only its key
and commitment are kept.  The registry stores commitments as 0x-prefixed
lowercase hex text; storage keys hash the packed 64-byte (lecture_id,
slide_id) encoding, matching
``keccak256(abi.encodePacked(uint256, uint256))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from .keccak import keccak256, keccak256_many
from .records import CorpusReader, ProvenanceRecord, SlideKey, canonical_bytes, normalized_bytes, split_pass

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


def commit_corpus(reader: CorpusReader) -> dict[SlideKey, Commitment]:
    """Commitments of the files ``reader`` loads, by key in key order, from one split pass.

    Raises EmptyCorpus as ``reader.read`` does.
    """
    def commit_range(only: Container[SlideKey]) -> list[tuple[SlideKey, bytes]]:
        keys: list[SlideKey] = []

        def encoded() -> Iterator[bytes]:
            for key, data in reader.read(normalized_bytes, only):
                keys.append(key)
                yield data

        return list(zip(keys, keccak256_many(encoded())))  # keys fill as the hasher draws

    pairs = split_pass([reader], list(reader.paths), commit_range)
    reader.require_loaded()
    return {key: Commitment(digest) for key, digest in pairs}


def storage_key(key: SlideKey) -> StorageKey:
    """Keccak-256 over lecture_id and slide_id packed as 32-byte big-endian ints."""
    packed = key.lecture_id.to_bytes(32, "big") + key.slide_id.to_bytes(32, "big")
    return keccak256(packed)
