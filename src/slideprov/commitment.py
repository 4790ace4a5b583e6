"""Keccak-256 commitments over canonical record bytes and storage keys.

A commitment is text: ``"0x"`` and the 64 lowercase hex digits of the
Keccak-256 digest, the form the registry stores and every report prints.
``commit_records`` hashes many records through the batched Keccak and
encodes each record's canonical bytes only when its batch is taken.
``commit_corpus`` does the same for a corpus on disk in one streamed pass,
split across processes by ``records.split_pass``: each file is read,
parsed, normalized and encoded when the hasher draws it, and only its key
and commitment are kept.  Storage keys hash the packed 64-byte
(lecture_id, slide_id) encoding, matching
``keccak256(abi.encodePacked(uint256, uint256))``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .keccak import keccak256, keccak256_many
from .records import CorpusReader, ProvenanceRecord, SlideKey, canonical_bytes, normalized_bytes, split_pass

# A storage key is exactly 32 bytes.
StorageKey = bytes


def _hex(digest: bytes) -> str:
    return "0x" + digest.hex()


def commit(data: bytes) -> str:
    """Commitment over an arbitrary byte sequence (empty allowed)."""
    return _hex(keccak256(data))


def commit_record(record: ProvenanceRecord) -> str:
    """Commitment over a record's canonical bytes."""
    return commit(canonical_bytes(record))


def commit_records(records: Iterable[ProvenanceRecord]) -> list[str]:
    """Commitments over many records' canonical bytes, in order."""
    return [_hex(d) for d in keccak256_many(canonical_bytes(r) for r in records)]


def commit_corpus(reader: CorpusReader) -> dict[SlideKey, str]:
    """Commitments of the files ``reader`` loads, by key in key order, from one split pass.

    Raises EmptyCorpus as ``split_pass`` does.
    """
    def commit_range(keys: list[SlideKey]) -> list[tuple[SlideKey, bytes]]:
        loaded: list[SlideKey] = []

        def encoded() -> Iterator[bytes]:
            for key, data in reader.read(normalized_bytes, keys):
                loaded.append(key)
                yield data

        return list(zip(loaded, keccak256_many(encoded())))  # keys fill as the hasher draws

    return {key: _hex(digest) for key, digest in split_pass([reader], commit_range)}


def storage_key(key: SlideKey) -> StorageKey:
    """Keccak-256 over lecture_id and slide_id packed as 32-byte big-endian ints."""
    packed = key.lecture_id.to_bytes(32, "big") + key.slide_id.to_bytes(32, "big")
    return keccak256(packed)
