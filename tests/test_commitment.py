import random

from keccak_reference import reference_keccak256
from slideprov import SlideKey, commit, commit_record, commit_records, storage_key
from slideprov.records import normalize_record

EMPTY_KECCAK = "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"


def test_empty_input_commitment():
    assert commit(b"") == EMPTY_KECCAK


def test_commit_deterministic():
    data = b"some canonical record bytes"
    assert commit(data) == commit(data)


def test_commit_distinguishes_single_flip():
    doc = {"lecture": "Lecture 1", "slide_id": 1,
           "models": {"m": {"concepts": [{"category": "c", "term": "term"}]}}}
    a = commit_record(normalize_record(doc))
    doc["models"]["m"]["concepts"][0]["term"] = "tern"
    b = commit_record(normalize_record(doc))
    assert a != b


def test_hex_form():
    c = commit(b"x")
    assert c.startswith("0x")
    assert len(c) == 66
    assert c == c.lower()


def test_hex_round_trip():
    # a commitment's text reads back as the digest of its bytes
    rng = random.Random(3)
    for _ in range(25):
        data = rng.randbytes(rng.randrange(0, 64))
        assert bytes.fromhex(commit(data)[2:]) == reference_keccak256(data)


class TestStorageKey:
    def test_packed_encoding_1_1(self):
        packed = (1).to_bytes(32, "big") + (1).to_bytes(32, "big")
        assert storage_key(SlideKey(1, 1)) == reference_keccak256(packed)

    def test_order_matters(self):
        assert storage_key(SlideKey(1, 2)) != storage_key(SlideKey(2, 1))

    def test_deterministic(self):
        assert storage_key(SlideKey(5, 9)) == storage_key(SlideKey(5, 9))

    def test_matches_reference_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(30):
            lecture, slide = rng.randrange(1, 10**9), rng.randrange(1, 10**9)
            packed = lecture.to_bytes(32, "big") + slide.to_bytes(32, "big")
            assert storage_key(SlideKey(lecture, slide)) == reference_keccak256(packed)

    def test_injective_on_small_grid(self):
        seen = {}
        for lecture in range(1, 17):
            for slide in range(1, 17):
                k = storage_key(SlideKey(lecture, slide))
                assert k not in seen, f"collision {seen.get(k)} vs {(lecture, slide)}"
                seen[k] = (lecture, slide)


def test_commit_records_equals_one_at_a_time(corpus):
    records = [corpus[key] for key in sorted(corpus)]
    assert commit_records(records) == [commit_record(r) for r in records]
    assert commit_records(iter(records)) == [commit_record(r) for r in records]
    assert commit_records([]) == []
