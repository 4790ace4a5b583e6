"""Keccak-256 commitments over canonical record bytes and storage keys.

A commitment is text: ``"0x"`` and the 64 lowercase hex digits of the
Keccak-256 digest, the form the registry stores and every report prints.
``commit_records`` hashes many records through the batched Keccak and
encodes each record's canonical bytes only when its batch is taken.
``commit_corpus`` does the same for a corpus on disk in one streamed pass,
split across processes by ``records.split_pass``: each file is read,
parsed, normalized and encoded when the hasher draws it, and only its key,
commitment and file digest (``ledger.file_digest`` of the bytes it read)
are kept.  Storage keys hash the packed 64-byte
(lecture_id, slide_id) encoding, matching
``keccak256(abi.encodePacked(uint256, uint256))``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from . import keccak
from .keccak import keccak256, keccak256_many
from .ledger import file_digest
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


def commit_corpus(reader: CorpusReader) -> dict[SlideKey, tuple[str, str]]:
    """The commitment and file digest of each file ``reader`` loads, by key in key order, from one split pass.

    Raises EmptyCorpus as ``split_pass`` does.
    """
    def commit_range(keys: list[SlideKey]) -> list[tuple[SlideKey, tuple[str, str]]]:
        files = ((key, item) for key in keys if (item := reader.load_file(key, normalized_bytes)))
        committed = []
        # one hasher's batch at a time: a file's bytes are held only until its commitment is known
        while batch := list(islice(files, keccak._BATCH)):
            digests = keccak256_many(encoded for _, (_, encoded) in batch)
            committed += [(key, (c, file_digest(c, data))) for (key, (data, _)), c in zip(batch, map(_hex, digests))]
        return committed

    return dict(split_pass([reader], commit_range))


def storage_key(key: SlideKey) -> StorageKey:
    """Keccak-256 over lecture_id and slide_id packed as 32-byte big-endian ints."""
    packed = key.lecture_id.to_bytes(32, "big") + key.slide_id.to_bytes(32, "big")
    return keccak256(packed)
