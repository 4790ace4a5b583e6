"""Canonical records and content commitments.

Takes a messy multi-extractor document, normalizes it into a canonical
record, and shows why the canonical byte encoding is a safe hashing
surface: reordering never changes the digest, any content edit does.
"""

import json

from slideprov import canonical_bytes, commit_record, normalize_record

# A raw document the way extraction pipelines actually emit them:
# inconsistent casing, stray whitespace, duplicates, nulls, and one
# model that returned a bare object instead of a list.
raw = {
    "lecture": "Lecture 1",
    "slide_id": 1,
    "models": {
        "vision-alpha": {
            "concepts": [
                {"category": "  Modality", "term": "X-Ray "},
                {"category": "modality", "term": "x-ray"},          # duplicate after cleanup
                {"category": "anatomy", "term": "  chest   wall "},
                {"category": "physics", "term": ""},                # empty term: dropped
            ],
            "triples": [
                {"s": "X-ray tube", "p": "EMITS", "o": "photons", "confidence": 0.9},
                {"s": "detector", "p": "measures", "o": "attenuation"},
            ],
            "evidence": ["The UPPER-case   spacing in evidence is kept verbatim."],
        },
        "vision-beta": {
            "concepts": {"category": "workflow", "term": "image acquisition"},
            "triples": None,                                        # missing -> empty set
        },
    },
    "paths": {"image": "Lecture1/Images/Slide1.jpg", "text": "Lecture1/Texts/Slide1.txt"},
    "metadata": {"timestamp": "2025-11-03T10:00:00", "source": "demo"},
}

record = normalize_record(raw)
print("normalized concepts (vision-alpha), identity -> evidence:")
for identity, evidence in record.models["vision-alpha"].concepts.items():
    print("   ", identity, "->", evidence)
print("vision-beta triples:", record.models["vision-beta"].triples, "(null became empty)")
print("evidence kept verbatim:", record.models["vision-alpha"].evidence[0])

encoded = canonical_bytes(record)
print("\ncanonical encoding starts:", encoded[:70].decode(), "...")
print("commitment:", commit_record(record))

# Shuffle everything that does not carry meaning: key order, list order.
shuffled = json.loads(json.dumps(raw))
shuffled["models"]["vision-alpha"]["concepts"].reverse()
shuffled["models"] = dict(reversed(list(shuffled["models"].items())))
print("\nafter shuffling input order, same commitment:",
      commit_record(normalize_record(shuffled)) == commit_record(record))

# Change one character of one term: completely different digest.
edited = json.loads(json.dumps(raw))
edited["models"]["vision-alpha"]["concepts"][2]["term"] = "chest wal"
print("after a one-character edit, same commitment: ",
      commit_record(normalize_record(edited)) == commit_record(record))
